//! Silicon die area ([`Area`]) and power draw ([`Power`]).

use core::fmt;

/// A silicon area in square millimetres.
///
/// # Examples
///
/// ```
/// use ador_units::Area;
///
/// let a100 = Area::from_mm2(826.0);
/// let ador = Area::from_mm2(516.0);
/// assert!((a100 / ador - 1.6) < 0.01);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, PartialOrd)]
pub struct Area(f64);

scalar_quantity!(Area, "square millimetres");

impl Area {
    /// Creates an area of `mm2` square millimetres.
    ///
    /// # Panics
    ///
    /// Panics if `mm2` is negative or not finite.
    #[inline]
    pub fn from_mm2(mm2: f64) -> Self {
        assert!(
            mm2.is_finite() && mm2 >= 0.0,
            "area must be finite and non-negative, got {mm2}"
        );
        Self(mm2)
    }

    /// Returns the area in mm².
    #[inline]
    pub const fn as_mm2(self) -> f64 {
        self.0
    }
}

impl fmt::Display for Area {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} mm2", self.0)
    }
}

/// Electrical power in watts (e.g. a device TDP).
///
/// # Examples
///
/// ```
/// use ador_units::Power;
///
/// let h100 = Power::from_watts(700.0);
/// assert_eq!(h100.as_watts(), 700.0);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, PartialOrd)]
pub struct Power(f64);

scalar_quantity!(Power, "watts");

impl Power {
    /// Creates a power of `watts` W.
    ///
    /// # Panics
    ///
    /// Panics if `watts` is negative or not finite.
    #[inline]
    pub fn from_watts(watts: f64) -> Self {
        assert!(
            watts.is_finite() && watts >= 0.0,
            "power must be finite and non-negative, got {watts}"
        );
        Self(watts)
    }

    /// Returns the power in watts.
    #[inline]
    pub const fn as_watts(self) -> f64 {
        self.0
    }
}

impl fmt::Display for Power {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.0} W", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn area_ratio_is_dimensionless() {
        assert_eq!(Area::from_mm2(800.0) / Area::from_mm2(400.0), 2.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Area::from_mm2(516.0)), "516.0 mm2");
        assert_eq!(format!("{}", Power::from_watts(300.0)), "300 W");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_area_rejected() {
        let _ = Area::from_mm2(-1.0);
    }

    proptest! {
        #[test]
        fn area_sum_of_parts(parts in proptest::collection::vec(0.0f64..1e4, 0..16)) {
            let total: Area = parts.iter().map(|&p| Area::from_mm2(p)).sum();
            let expect: f64 = parts.iter().sum();
            prop_assert!((total.as_mm2() - expect).abs() < 1e-6);
        }
    }
}
