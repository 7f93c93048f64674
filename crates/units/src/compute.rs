//! Compute work ([`FlopCount`]), compute rate ([`FlopRate`]) and token
//! throughput ([`TokensPerSecond`]).

use core::fmt;
use core::ops::{Div, Mul};

use crate::{Seconds, Utilization};

/// A count of floating-point operations (one multiply-accumulate = 2 FLOPs,
/// following datasheet convention).
///
/// # Examples
///
/// ```
/// use ador_units::FlopCount;
///
/// // One decoder GEMV: 2 * K * N FLOPs.
/// let gemv = FlopCount::from_macs(4096 * 14336);
/// assert_eq!(gemv.get(), 2.0 * 4096.0 * 14336.0);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, PartialOrd)]
pub struct FlopCount(f64);

scalar_quantity!(FlopCount, "flops");

impl FlopCount {
    /// Creates a count of `flops` floating-point operations.
    ///
    /// # Panics
    ///
    /// Panics if `flops` is negative or not finite.
    #[inline]
    pub fn new(flops: f64) -> Self {
        assert!(
            flops.is_finite() && flops >= 0.0,
            "flop count must be finite and non-negative, got {flops}"
        );
        Self(flops)
    }

    /// Creates a count from `macs` multiply-accumulates (2 FLOPs each).
    #[inline]
    pub fn from_macs(macs: u64) -> Self {
        Self(macs as f64 * 2.0)
    }

    /// Creates a count of `tflops` · 10¹² operations.
    #[inline]
    pub fn from_tera(tflops: f64) -> Self {
        Self::new(tflops * 1e12)
    }

    /// Returns the count in units of 10⁹ operations.
    #[inline]
    pub fn as_giga(self) -> f64 {
        self.0 / 1e9
    }

    /// Returns the count in units of 10¹² operations.
    #[inline]
    pub fn as_tera(self) -> f64 {
        self.0 / 1e12
    }
}

impl fmt::Display for FlopCount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e12 {
            write!(f, "{:.2} TFLOP", self.as_tera())
        } else if self.0 >= 1e9 {
            write!(f, "{:.2} GFLOP", self.as_giga())
        } else {
            write!(f, "{:.0} FLOP", self.0)
        }
    }
}

/// A compute rate in FLOP/s.
///
/// # Examples
///
/// ```
/// use ador_units::{FlopCount, FlopRate};
///
/// let a100 = FlopRate::from_tflops(312.0);
/// let prefill = FlopCount::from_tera(16.4);
/// assert!((prefill / a100).as_millis() - 52.6 < 0.1);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, PartialOrd)]
pub struct FlopRate(f64);

scalar_quantity!(FlopRate, "flops per second");

impl FlopRate {
    /// Creates a rate of `fps` FLOP/s.
    ///
    /// # Panics
    ///
    /// Panics if `fps` is negative or not finite.
    #[inline]
    pub fn new(fps: f64) -> Self {
        assert!(
            fps.is_finite() && fps >= 0.0,
            "flop rate must be finite and non-negative, got {fps}"
        );
        Self(fps)
    }

    /// Creates a rate of `tflops` TFLOP/s.
    #[inline]
    pub fn from_tflops(tflops: f64) -> Self {
        Self::new(tflops * 1e12)
    }

    /// Returns the rate in TFLOP/s.
    #[inline]
    pub fn as_tflops(self) -> f64 {
        self.0 / 1e12
    }

    /// Returns the rate in GFLOP/s.
    #[inline]
    pub fn as_gflops(self) -> f64 {
        self.0 / 1e9
    }

    /// Derates this rate by a measured [`Utilization`].
    #[inline]
    pub fn derated(self, util: Utilization) -> Self {
        Self(self.0 * util.get())
    }
}

impl fmt::Display for FlopRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e12 {
            write!(f, "{:.1} TFLOPS", self.as_tflops())
        } else {
            write!(f, "{:.1} GFLOPS", self.as_gflops())
        }
    }
}

/// Execution time: work divided by rate.
impl Div<FlopRate> for FlopCount {
    type Output = Seconds;
    #[inline]
    fn div(self, rhs: FlopRate) -> Seconds {
        Seconds::new(self.0 / rhs.0)
    }
}

/// Work done in a time window.
impl Mul<Seconds> for FlopRate {
    type Output = FlopCount;
    #[inline]
    fn mul(self, rhs: Seconds) -> FlopCount {
        FlopCount::new(self.0 * rhs.get())
    }
}

/// Achieved rate: work divided by elapsed time.
impl Div<Seconds> for FlopCount {
    type Output = FlopRate;
    #[inline]
    fn div(self, rhs: Seconds) -> FlopRate {
        FlopRate::new(self.0 / rhs.get())
    }
}

/// Token generation throughput (the paper's TBT axis unit, tokens/s).
///
/// # Examples
///
/// ```
/// use ador_units::{Seconds, TokensPerSecond};
///
/// let tbt = Seconds::from_millis(20.0);
/// let rate = TokensPerSecond::from_interval(tbt);
/// assert_eq!(rate.get(), 50.0);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, PartialOrd)]
pub struct TokensPerSecond(f64);

scalar_quantity!(TokensPerSecond, "tokens per second");

impl TokensPerSecond {
    /// Creates a throughput of `tps` tokens per second.
    ///
    /// # Panics
    ///
    /// Panics if `tps` is negative or not finite.
    #[inline]
    pub fn new(tps: f64) -> Self {
        assert!(
            tps.is_finite() && tps >= 0.0,
            "token rate must be finite and non-negative, got {tps}"
        );
        Self(tps)
    }

    /// Converts a time-between-tokens interval into tokens/s.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    #[inline]
    pub fn from_interval(interval: Seconds) -> Self {
        Self::new(interval.recip_rate())
    }

    /// Converts back into a time-between-tokens interval.
    ///
    /// # Panics
    ///
    /// Panics if the throughput is zero.
    #[inline]
    pub fn interval(self) -> Seconds {
        assert!(self.0 > 0.0, "cannot invert a zero token rate");
        Seconds::new(1.0 / self.0)
    }
}

impl fmt::Display for TokensPerSecond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} tok/s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn macs_are_two_flops() {
        assert_eq!(FlopCount::from_macs(10).get(), 20.0);
    }

    #[test]
    fn work_over_rate_is_time() {
        let t = FlopCount::from_tera(312.0) / FlopRate::from_tflops(312.0);
        assert!((t.get() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn achieved_rate_roundtrip() {
        let work = FlopCount::from_tera(1.0);
        let rate = work / Seconds::from_millis(10.0);
        assert!((rate.as_tflops() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn tokens_per_second_inverts_tbt() {
        let rate = TokensPerSecond::from_interval(Seconds::from_millis(25.0));
        assert_eq!(rate.get(), 40.0);
        assert!((rate.interval().as_millis() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", FlopRate::from_tflops(312.0)), "312.0 TFLOPS");
        assert_eq!(format!("{}", TokensPerSecond::new(42.25)), "42.2 tok/s");
    }

    proptest! {
        #[test]
        fn derated_rate_never_exceeds_peak(tf in 0.1f64..2000.0, u in 0.0f64..=1.0) {
            let peak = FlopRate::from_tflops(tf);
            let derated = peak.derated(Utilization::new(u));
            prop_assert!(derated <= peak);
        }

        #[test]
        fn time_monotone_in_work(a in 1.0f64..1e15, b in 1.0f64..1e15, r in 1.0f64..1e15) {
            let rate = FlopRate::new(r);
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            prop_assert!(FlopCount::new(lo) / rate <= FlopCount::new(hi) / rate);
        }
    }
}
