//! Data volume ([`Bytes`]) and transfer rate ([`Bandwidth`]).

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use crate::{Seconds, Utilization};

/// A volume of data in bytes.
///
/// Backed by `u64` so that model/KV-cache sizes stay exact; fractional
/// intermediate results only appear once a [`Bandwidth`] is involved.
///
/// # Examples
///
/// ```
/// use ador_units::Bytes;
///
/// let kv_per_token = Bytes::from_kib(128);
/// let cache = kv_per_token * 1024;
/// assert_eq!(cache, Bytes::from_mib(128));
/// assert_eq!(format!("{cache}"), "128.00 MiB");
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bytes(u64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Self = Self(0);

    /// Creates a quantity of `n` bytes.
    #[inline]
    pub const fn new(n: u64) -> Self {
        Self(n)
    }

    /// Creates a quantity of `n` kibibytes (1024 B).
    #[inline]
    pub const fn from_kib(n: u64) -> Self {
        Self(n * 1024)
    }

    /// Creates a quantity of `n` mebibytes (1024 KiB).
    #[inline]
    pub const fn from_mib(n: u64) -> Self {
        Self(n * 1024 * 1024)
    }

    /// Creates a quantity of `n` gibibytes (1024 MiB).
    #[inline]
    pub const fn from_gib(n: u64) -> Self {
        Self(n * 1024 * 1024 * 1024)
    }

    /// Rounds a fractional byte count to the nearest whole byte.
    ///
    /// Useful when scaling a volume by a dimensionless factor.
    #[inline]
    pub fn from_f64(n: f64) -> Self {
        Self(n.max(0.0).round() as u64)
    }

    /// Returns the raw byte count.
    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Returns the volume in KiB.
    #[inline]
    pub fn as_kib(self) -> f64 {
        self.0 as f64 / 1024.0
    }

    /// Returns the volume in MiB.
    #[inline]
    pub fn as_mib(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0)
    }

    /// Returns the volume in GiB.
    #[inline]
    pub fn as_gib(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0 * 1024.0)
    }

    /// Returns `true` if the volume is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction; clamps at zero instead of wrapping.
    #[inline]
    pub const fn saturating_sub(self, rhs: Self) -> Self {
        Self(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition; `None` on overflow.
    #[inline]
    pub const fn checked_add(self, rhs: Self) -> Option<Self> {
        match self.0.checked_add(rhs.0) {
            Some(v) => Some(Self(v)),
            None => None,
        }
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

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0 as f64;
        if b >= 1024.0 * 1024.0 * 1024.0 {
            write!(f, "{:.2} GiB", self.as_gib())
        } else if b >= 1024.0 * 1024.0 {
            write!(f, "{:.2} MiB", self.as_mib())
        } else if b >= 1024.0 {
            write!(f, "{:.2} KiB", self.as_kib())
        } else {
            write!(f, "{} B", self.0)
        }
    }
}

impl Add for Bytes {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl AddAssign for Bytes {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        self.0 += rhs.0;
    }
}

impl Sub for Bytes {
    type Output = Self;
    /// # Panics
    ///
    /// Panics in debug builds if the result would underflow (as `u64` does).
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self(self.0 - rhs.0)
    }
}

impl SubAssign for Bytes {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Bytes {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: u64) -> Self {
        Self(self.0 * rhs)
    }
}

impl Mul<Bytes> for u64 {
    type Output = Bytes;
    #[inline]
    fn mul(self, rhs: Bytes) -> Bytes {
        Bytes(self * rhs.0)
    }
}

impl Mul<f64> for Bytes {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: f64) -> Self {
        Self::from_f64(self.0 as f64 * rhs)
    }
}

impl Div<u64> for Bytes {
    type Output = Self;
    #[inline]
    fn div(self, rhs: u64) -> Self {
        Self(self.0 / rhs)
    }
}

/// Ratio of two volumes is dimensionless.
impl Div for Bytes {
    type Output = f64;
    #[inline]
    fn div(self, rhs: Self) -> f64 {
        self.0 as f64 / rhs.0 as f64
    }
}

impl core::iter::Sum for Bytes {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |acc, x| acc + x)
    }
}

impl<'a> core::iter::Sum<&'a Bytes> for Bytes {
    fn sum<I: Iterator<Item = &'a Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |acc, x| acc + *x)
    }
}

impl From<u64> for Bytes {
    fn from(n: u64) -> Self {
        Self(n)
    }
}

/// A data-transfer rate.
///
/// Stored internally as bytes per second. Decimal (SI) units are used for the
/// rate constructors, matching hardware datasheets ("2 TB/s HBM" means
/// 2·10¹² B/s).
///
/// # Examples
///
/// ```
/// use ador_units::{Bandwidth, Bytes};
///
/// let hbm = Bandwidth::from_gbps(3350.0); // H100 HBM3e
/// let t = Bytes::from_gib(80) / hbm;
/// assert!((t.as_millis() - 25.6).abs() < 0.1);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, PartialOrd)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// Creates a rate from raw bytes per second.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is negative or not finite.
    #[inline]
    pub fn from_bytes_per_sec(bytes_per_sec: f64) -> Self {
        assert!(
            bytes_per_sec.is_finite() && bytes_per_sec >= 0.0,
            "bandwidth must be finite and non-negative, got {bytes_per_sec}"
        );
        Self(bytes_per_sec)
    }

    /// Creates a rate of `gbps` gigabytes (10⁹ B) per second.
    #[inline]
    pub fn from_gbps(gbps: f64) -> Self {
        Self::from_bytes_per_sec(gbps * 1e9)
    }

    /// Creates a rate of `tbps` terabytes (10¹² B) per second.
    #[inline]
    pub fn from_tbps(tbps: f64) -> Self {
        Self::from_bytes_per_sec(tbps * 1e12)
    }

    /// Returns the rate in bytes per second.
    #[inline]
    pub const fn as_bytes_per_sec(self) -> f64 {
        self.0
    }

    /// Returns the rate in GB/s (10⁹).
    #[inline]
    pub fn as_gbps(self) -> f64 {
        self.0 / 1e9
    }

    /// Returns the rate in TB/s (10¹²).
    #[inline]
    pub fn as_tbps(self) -> f64 {
        self.0 / 1e12
    }

    /// Bytes delivered per hardware cycle at clock `freq`.
    #[inline]
    pub fn bytes_per_cycle(self, freq: crate::Frequency) -> f64 {
        self.0 / freq.as_hz()
    }

    /// Derates this bandwidth by a measured [`Utilization`].
    #[inline]
    pub fn derated(self, util: Utilization) -> Self {
        Self(self.0 * util.get())
    }

    /// Returns `true` if the rate is zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
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

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e12 {
            write!(f, "{:.2} TB/s", self.as_tbps())
        } else {
            write!(f, "{:.1} GB/s", self.as_gbps())
        }
    }
}

impl Add for Bandwidth {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl Sub for Bandwidth {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self((self.0 - rhs.0).max(0.0))
    }
}

impl Mul<f64> for Bandwidth {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: f64) -> Self {
        Self(self.0 * rhs)
    }
}

impl Div<f64> for Bandwidth {
    type Output = Self;
    #[inline]
    fn div(self, rhs: f64) -> Self {
        Self(self.0 / rhs)
    }
}

/// Ratio of two rates is dimensionless.
impl Div for Bandwidth {
    type Output = f64;
    #[inline]
    fn div(self, rhs: Self) -> f64 {
        self.0 / rhs.0
    }
}

/// Transfer time: volume divided by rate.
impl Div<Bandwidth> for Bytes {
    type Output = Seconds;
    #[inline]
    fn div(self, rhs: Bandwidth) -> Seconds {
        Seconds::new(self.0 as f64 / rhs.0)
    }
}

/// Volume moved in a time window (fractional bytes rounded to nearest).
impl Mul<Seconds> for Bandwidth {
    type Output = Bytes;
    #[inline]
    fn mul(self, rhs: Seconds) -> Bytes {
        Bytes::from_f64(self.0 * rhs.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn byte_constructors_compose() {
        assert_eq!(Bytes::from_kib(1), Bytes::new(1024));
        assert_eq!(Bytes::from_mib(1), Bytes::from_kib(1024));
        assert_eq!(Bytes::from_gib(1), Bytes::from_mib(1024));
    }

    #[test]
    fn byte_display_picks_scale() {
        assert_eq!(format!("{}", Bytes::new(17)), "17 B");
        assert_eq!(format!("{}", Bytes::from_kib(2)), "2.00 KiB");
        assert_eq!(format!("{}", Bytes::from_gib(3)), "3.00 GiB");
    }

    #[test]
    fn transfer_time_is_volume_over_rate() {
        let t = Bytes::new(2_000_000_000) / Bandwidth::from_gbps(2.0);
        assert!((t.get() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_derating_scales_linearly() {
        let bw = Bandwidth::from_tbps(2.0);
        let derated = bw.derated(Utilization::new(0.55));
        assert!((derated.as_tbps() - 1.1).abs() < 1e-12);
    }

    #[test]
    fn bytes_per_cycle_matches_paper_formula() {
        // Paper §V-A: data_size_per_cycle = memory_bandwidth / core_frequency.
        let per_cycle = Bandwidth::from_tbps(2.0).bytes_per_cycle(crate::Frequency::from_ghz(1.5));
        assert!((per_cycle - 1333.33).abs() < 0.01);
    }

    #[test]
    fn saturating_sub_clamps() {
        assert_eq!(Bytes::new(1).saturating_sub(Bytes::new(5)), Bytes::ZERO);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_bandwidth_rejected() {
        let _ = Bandwidth::from_bytes_per_sec(-1.0);
    }

    proptest! {
        #[test]
        fn bytes_add_commutes(a in 0u64..1 << 40, b in 0u64..1 << 40) {
            prop_assert_eq!(Bytes::new(a) + Bytes::new(b), Bytes::new(b) + Bytes::new(a));
        }

        #[test]
        fn transfer_time_positive(vol in 1u64..1 << 45, gbps in 1.0f64..10_000.0) {
            let t = Bytes::new(vol) / Bandwidth::from_gbps(gbps);
            prop_assert!(t.get() > 0.0);
        }

        #[test]
        fn faster_link_never_slower(vol in 1u64..1 << 45, gbps in 1.0f64..5_000.0) {
            let slow = Bytes::new(vol) / Bandwidth::from_gbps(gbps);
            let fast = Bytes::new(vol) / Bandwidth::from_gbps(gbps * 2.0);
            prop_assert!(fast.get() <= slow.get());
        }

        #[test]
        fn roundtrip_bandwidth_volume(gbps in 0.001f64..10_000.0, secs in 0.001f64..100.0) {
            let bw = Bandwidth::from_gbps(gbps);
            let moved = bw * Seconds::new(secs);
            let back = moved / bw;
            // Rounding to whole bytes costs at most one byte of error.
            prop_assert!((back.get() - secs).abs() <= 1.0 / bw.as_bytes_per_sec() + 1e-9);
        }
    }
}
