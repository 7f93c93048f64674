//! Typed physical quantities used throughout the ADOR framework.
//!
//! Analytical accelerator models juggle bytes, bandwidths, cycle counts,
//! frequencies, FLOP counts and die areas. Mixing those up silently is the
//! classic source of simulator bugs, so every quantity gets a newtype
//! ([C-NEWTYPE]) with only the arithmetic that is dimensionally meaningful:
//!
//! * [`Bytes`] ÷ [`Bandwidth`] → [`Seconds`]
//! * [`Cycles`] ÷ [`Frequency`] → [`Seconds`]
//! * [`FlopCount`] ÷ [`FlopRate`] → [`Seconds`]
//! * scaling by dimensionless `f64` / [`Utilization`] everywhere.
//!
//! # Examples
//!
//! ```
//! use ador_units::{Bandwidth, Bytes, Frequency, Cycles};
//!
//! let weights = Bytes::from_gib(16);
//! let hbm = Bandwidth::from_tbps(2.0);
//! let stream_time = weights / hbm;
//! assert!((stream_time.as_millis() - 8.59).abs() < 0.01);
//!
//! let fill = Cycles::new(128) / Frequency::from_ghz(1.5);
//! assert!(fill.as_micros() < 0.1);
//! ```
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[macro_use]
mod macros;

mod area;
mod bytes;
mod compute;
pub mod conv;
mod ratio;
mod time;

pub use area::{Area, Power};
pub use bytes::{Bandwidth, Bytes};
pub use compute::{FlopCount, FlopRate};
pub use ratio::Utilization;
pub use time::{Cycles, Frequency, Seconds};

#[cfg(test)]
mod conversion_tests {
    //! Cross-type conversions and the `scalar_quantity!`-generated surface.
    //! Every `f64`-backed quantity gets its arithmetic from that one macro,
    //! so exercising one instantiation per operator family covers them all;
    //! the conversion identities pin the unit definitions (KiB vs KB, Gb vs
    //! GB) that the rest of the framework silently relies on.

    use proptest::prelude::*;

    use crate::*;

    #[test]
    fn byte_prefixes_are_binary() {
        assert_eq!(Bytes::from_kib(1).get(), 1 << 10);
        assert_eq!(Bytes::from_mib(1).get(), 1 << 20);
        assert_eq!(Bytes::from_gib(1).get(), 1 << 30);
        assert_eq!(Bytes::from_gib(3).as_mib(), 3.0 * 1024.0);
        assert_eq!(Bytes::from_kib(2048).as_mib(), 2.0);
    }

    #[test]
    fn bandwidth_prefixes_are_decimal() {
        // Link/DRAM bandwidths are vendor-sheet GB/s, not GiB/s.
        assert_eq!(Bandwidth::from_gbps(1.0).as_bytes_per_sec(), 1e9);
        assert_eq!(Bandwidth::from_tbps(2.0).as_gbps(), 2000.0);
    }

    #[test]
    fn time_conversions_round_trip() {
        let s = Seconds::from_millis(1.5);
        assert_eq!(s.as_micros(), 1500.0);
        assert_eq!(Seconds::from_micros(250.0).as_millis(), 0.25);
        assert_eq!(Frequency::from_ghz(1.0).as_mhz(), 1000.0);
    }

    #[test]
    fn flop_conversions_round_trip() {
        assert_eq!(FlopCount::from_macs(5).get(), 10.0); // 1 MAC = 2 FLOPs
        assert_eq!(FlopCount::from_tera(2.0).as_giga(), 2000.0);
        assert_eq!(FlopRate::from_tflops(1.5).as_gflops(), 1500.0);
    }

    #[test]
    fn dimensional_divisions_yield_seconds() {
        assert_eq!(
            Bytes::from_gib(2) / Bandwidth::from_bytes_per_sec(Bytes::from_gib(1).get() as f64),
            Seconds::new(2.0)
        );
        assert_eq!(
            Cycles::new(3_000_000) / Frequency::from_mhz(1500.0),
            Seconds::from_millis(2.0)
        );
        assert_eq!(
            FlopCount::from_tera(3.0) / FlopRate::from_tflops(1.0),
            Seconds::new(3.0)
        );
    }

    #[test]
    fn macro_generated_arithmetic_surface() {
        // One instantiation of `scalar_quantity!` (Seconds) exercised op by op.
        let a = Seconds::new(2.0);
        let b = Seconds::new(0.5);
        assert_eq!(a + b, Seconds::new(2.5));
        assert_eq!(a - b, Seconds::new(1.5));
        assert_eq!(a * 3.0, Seconds::new(6.0));
        assert_eq!(3.0 * a, Seconds::new(6.0));
        assert_eq!(a / 4.0, b);
        assert_eq!(a / b, 4.0); // same-dimension ratio is dimensionless
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
        assert!(Seconds::ZERO.is_zero() && !a.is_zero());

        let mut acc = Seconds::ZERO;
        acc += a;
        acc -= b;
        assert_eq!(acc, Seconds::new(1.5));

        let owned: Seconds = [a, b, b].into_iter().sum();
        let by_ref: Seconds = [a, b, b].iter().sum();
        assert_eq!(owned, Seconds::new(3.0));
        assert_eq!(owned, by_ref);
    }

    #[test]
    fn derating_composes() {
        let half = Utilization::new(0.5);
        let fifth = Utilization::new(0.2);
        assert_eq!((half * fifth).get(), 0.1);
        assert_eq!(Bandwidth::from_gbps(100.0).derated(half).as_gbps(), 50.0);
        assert_eq!(FlopRate::from_tflops(10.0).derated(fifth).as_tflops(), 2.0);
        assert_eq!(Utilization::new_clamped(7.0), Utilization::FULL);
        assert_eq!(Utilization::new_clamped(-1.0), Utilization::IDLE);
    }

    #[test]
    fn saturating_and_checked_integer_ops() {
        assert_eq!(Bytes::new(5).saturating_sub(Bytes::new(9)), Bytes::ZERO);
        assert_eq!(Bytes::new(u64::MAX).checked_add(Bytes::new(1)), None);
        assert_eq!(
            Cycles::new(4).saturating_sub(Cycles::new(6)),
            Cycles::new(0)
        );
    }

    proptest! {
        /// a·t streamed at rate b takes a·(t/b): time scales linearly in
        /// traffic for any bandwidth — the identity the roofline model uses.
        #[test]
        fn streaming_time_is_linear(gib in 1u64..64, scale in 1.0f64..8.0, gbps in 100.0f64..4000.0) {
            let bw = Bandwidth::from_gbps(gbps);
            let one = Bytes::from_gib(gib) / bw;
            let many = Bytes::from_f64(Bytes::from_gib(gib).get() as f64 * scale) / bw;
            prop_assert!((many.get() - one.get() * scale).abs() <= one.get() * scale * 1e-9);
        }
    }
}
