//! Wall-clock time ([`Seconds`]), clock cycles ([`Cycles`]) and clock rate
//! ([`Frequency`]).

use core::fmt;
use core::ops::Div;

/// A span of wall-clock time in seconds.
///
/// # Examples
///
/// ```
/// use ador_units::Seconds;
///
/// let ttft = Seconds::from_millis(24.0);
/// let tbt = Seconds::from_millis(18.0);
/// assert_eq!((ttft + tbt).as_millis(), 42.0);
/// assert!(ttft > tbt);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, PartialOrd)]
pub struct Seconds(f64);

scalar_quantity!(Seconds, "seconds");

impl Seconds {
    /// Creates a span of `secs` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite — negative latencies always
    /// indicate a modelling bug upstream.
    #[inline]
    pub fn new(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "time span must be finite and non-negative, got {secs}"
        );
        Self(secs)
    }

    /// Creates a span of `ms` milliseconds.
    #[inline]
    pub fn from_millis(ms: f64) -> Self {
        Self::new(ms * 1e-3)
    }

    /// Creates a span of `us` microseconds.
    #[inline]
    pub fn from_micros(us: f64) -> Self {
        Self::new(us * 1e-6)
    }

    /// Returns the span in milliseconds.
    #[inline]
    pub fn as_millis(self) -> f64 {
        self.0 * 1e3
    }

    /// Returns the span in microseconds.
    #[inline]
    pub fn as_micros(self) -> f64 {
        self.0 * 1e6
    }

    /// Events per second at one event per span (e.g. tokens/s from TBT).
    ///
    /// # Panics
    ///
    /// Panics if the span is zero.
    #[inline]
    pub fn recip_rate(self) -> f64 {
        assert!(self.0 > 0.0, "cannot invert a zero time span");
        1.0 / self.0
    }
}

impl fmt::Display for Seconds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1.0 {
            write!(f, "{:.3} s", self.0)
        } else if self.0 >= 1e-3 {
            write!(f, "{:.3} ms", self.as_millis())
        } else {
            write!(f, "{:.3} us", self.as_micros())
        }
    }
}

/// A count of hardware clock cycles.
///
/// # Examples
///
/// ```
/// use ador_units::{Cycles, Frequency};
///
/// let gemm = Cycles::new(1_500_000);
/// let t = gemm / Frequency::from_ghz(1.5);
/// assert_eq!(t.as_millis(), 1.0);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cycles(u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Self = Self(0);

    /// Creates a count of `n` cycles.
    #[inline]
    pub const fn new(n: u64) -> Self {
        Self(n)
    }

    /// Returns the raw count.
    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Returns `true` if the count is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Returns the larger of `self` and `other`.
    #[inline]
    pub fn max(self, other: Self) -> Self {
        Self(self.0.max(other.0))
    }

    /// Saturating subtraction; clamps at zero.
    #[inline]
    pub const fn saturating_sub(self, rhs: Self) -> Self {
        Self(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cycles", self.0)
    }
}

impl core::ops::Add for Cycles {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl core::ops::AddAssign for Cycles {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        self.0 += rhs.0;
    }
}

impl core::ops::Mul<u64> for Cycles {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: u64) -> Self {
        Self(self.0 * rhs)
    }
}

impl core::iter::Sum for Cycles {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |acc, x| acc + x)
    }
}

/// A clock rate in hertz.
///
/// # Examples
///
/// ```
/// use ador_units::Frequency;
///
/// let a100 = Frequency::from_mhz(1500.0);
/// assert_eq!(a100.as_ghz(), 1.5);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, PartialOrd)]
pub struct Frequency(f64);

impl Frequency {
    /// Creates a rate of `hz` hertz.
    ///
    /// # Panics
    ///
    /// Panics if `hz` is not finite or not strictly positive.
    #[inline]
    pub fn from_hz(hz: f64) -> Self {
        assert!(
            hz.is_finite() && hz > 0.0,
            "frequency must be finite and positive, got {hz}"
        );
        Self(hz)
    }

    /// Creates a rate of `mhz` megahertz.
    #[inline]
    pub fn from_mhz(mhz: f64) -> Self {
        Self::from_hz(mhz * 1e6)
    }

    /// Creates a rate of `ghz` gigahertz.
    #[inline]
    pub fn from_ghz(ghz: f64) -> Self {
        Self::from_hz(ghz * 1e9)
    }

    /// Returns the rate in hertz.
    #[inline]
    pub const fn as_hz(self) -> f64 {
        self.0
    }

    /// Returns the rate in megahertz.
    #[inline]
    pub fn as_mhz(self) -> f64 {
        self.0 / 1e6
    }

    /// Returns the rate in gigahertz.
    #[inline]
    pub fn as_ghz(self) -> f64 {
        self.0 / 1e9
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e9 {
            write!(f, "{:.2} GHz", self.as_ghz())
        } else {
            write!(f, "{:.0} MHz", self.as_mhz())
        }
    }
}

/// Elapsed time: cycle count divided by clock rate.
impl Div<Frequency> for Cycles {
    type Output = Seconds;
    #[inline]
    fn div(self, rhs: Frequency) -> Seconds {
        Seconds::new(self.0 as f64 / rhs.as_hz())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn millis_roundtrip() {
        let t = Seconds::from_millis(12.5);
        assert!((t.as_millis() - 12.5).abs() < 1e-12);
    }

    #[test]
    fn display_scales() {
        assert_eq!(format!("{}", Seconds::new(2.0)), "2.000 s");
        assert_eq!(format!("{}", Seconds::from_millis(3.5)), "3.500 ms");
        assert_eq!(format!("{}", Seconds::from_micros(7.0)), "7.000 us");
        assert_eq!(format!("{}", Frequency::from_mhz(1593.0)), "1.59 GHz");
        assert_eq!(format!("{}", Frequency::from_mhz(950.0)), "950 MHz");
        assert_eq!(format!("{}", Cycles::new(3)), "3 cycles");
    }

    #[test]
    fn cycles_over_frequency_is_time() {
        let t = Cycles::new(3_000_000) / Frequency::from_ghz(1.0);
        assert!((t.as_millis() - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_time_rejected() {
        let _ = Seconds::new(-1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_frequency_rejected() {
        let _ = Frequency::from_hz(0.0);
    }

    proptest! {
        #[test]
        fn higher_clock_is_faster(n in 1u64..1u64 << 40, ghz in 0.1f64..5.0) {
            let slow = Cycles::new(n) / Frequency::from_ghz(ghz);
            let fast = Cycles::new(n) / Frequency::from_ghz(ghz * 1.5);
            prop_assert!(fast < slow);
        }
    }
}
