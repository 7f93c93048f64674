//! Dimensionless utilization in `[0, 1]`.

use core::fmt;
use core::ops::Mul;

/// A utilization or efficiency fraction, statically guaranteed to lie in
/// `[0, 1]`.
///
/// The ADOR models derate peak bandwidth and peak FLOPS by measured
/// utilizations (paper Fig. 4b, Fig. 10); wrapping the fraction prevents a
/// stray `1.1` or `-0.2` from silently inflating performance.
///
/// # Examples
///
/// ```
/// use ador_units::Utilization;
///
/// let gpu_hbm = Utilization::new(0.55);
/// let combined = gpu_hbm * Utilization::new(0.5);
/// assert_eq!(combined.get(), 0.275);
/// assert_eq!(format!("{gpu_hbm}"), "55.0%");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Utilization(f64);

impl Utilization {
    /// Zero utilization (fully idle).
    pub const IDLE: Self = Self(0.0);

    /// Full utilization.
    pub const FULL: Self = Self(1.0);

    /// Creates a utilization of `frac`.
    ///
    /// # Panics
    ///
    /// Panics if `frac` is outside `[0, 1]` or not finite.
    #[inline]
    pub fn new(frac: f64) -> Self {
        assert!(
            frac.is_finite() && (0.0..=1.0).contains(&frac),
            "utilization must lie in [0, 1], got {frac}"
        );
        Self(frac)
    }

    /// Creates a utilization, clamping out-of-range values into `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `frac` is NaN.
    #[inline]
    pub fn new_clamped(frac: f64) -> Self {
        assert!(!frac.is_nan(), "utilization must not be NaN");
        Self(frac.clamp(0.0, 1.0))
    }

    /// Returns the fraction in `[0, 1]`.
    #[inline]
    pub const fn get(self) -> f64 {
        self.0
    }

    /// Returns the fraction as a percentage in `[0, 100]`.
    #[inline]
    pub fn as_percent(self) -> f64 {
        self.0 * 100.0
    }

    /// Returns the larger of `self` and `other`.
    #[inline]
    pub fn max(self, other: Self) -> Self {
        Self(self.0.max(other.0))
    }

    /// Returns the smaller of `self` and `other`.
    #[inline]
    pub fn min(self, other: Self) -> Self {
        Self(self.0.min(other.0))
    }
}

impl Default for Utilization {
    /// Defaults to full utilization (the ideal, underated model).
    fn default() -> Self {
        Self::FULL
    }
}

impl fmt::Display for Utilization {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}%", self.as_percent())
    }
}

/// Utilizations compose multiplicatively (independent derating stages).
impl Mul for Utilization {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self(self.0 * rhs.0)
    }
}

impl Mul<f64> for Utilization {
    type Output = f64;
    #[inline]
    fn mul(self, rhs: f64) -> f64 {
        self.0 * rhs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bounds_enforced() {
        assert_eq!(Utilization::new(0.0), Utilization::IDLE);
        assert_eq!(Utilization::new(1.0), Utilization::FULL);
    }

    #[test]
    #[should_panic(expected = "must lie in [0, 1]")]
    fn above_one_rejected() {
        let _ = Utilization::new(1.01);
    }

    #[test]
    fn clamped_constructor_saturates() {
        assert_eq!(Utilization::new_clamped(3.0), Utilization::FULL);
        assert_eq!(Utilization::new_clamped(-3.0), Utilization::IDLE);
    }

    #[test]
    fn default_is_ideal() {
        assert_eq!(Utilization::default(), Utilization::FULL);
    }

    proptest! {
        #[test]
        fn product_stays_in_range(a in 0.0f64..=1.0, b in 0.0f64..=1.0) {
            let p = Utilization::new(a) * Utilization::new(b);
            prop_assert!((0.0..=1.0).contains(&p.get()));
            prop_assert!(p <= Utilization::new(a));
        }
    }
}
