//! Checked-by-construction numeric conversions.
//!
//! The sim crates are forbidden (by `ador-lint`'s `as-cast` rule) from
//! writing raw numeric `as` casts in library code: `as` silently
//! truncates, wraps or rounds, which is exactly the failure mode a
//! token/time-accounting simulator cannot afford. These helpers give the
//! sim crates named, documented conversions instead. Each one either
//! cannot lose information (widening into `f64`/`u64`) or documents the
//! saturation it performs.
//!
//! # Examples
//!
//! ```
//! use ador_units::conv;
//!
//! assert_eq!(conv::f64_from_usize(3), 3.0);
//! assert_eq!(conv::usize_from_f64(2.9), 2);
//! assert_eq!(conv::usize_from_f64(-1.0), 0); // saturates at zero
//! assert_eq!(conv::u64_from_f64(7.0_f64.ceil()), 7);
//! ```

/// Widens a `usize` count into `f64`.
///
/// Counts above 2^53 lose precision (they round to the nearest
/// representable `f64`), which is far beyond any token or request count
/// the simulator produces.
#[inline]
#[must_use]
pub fn f64_from_usize(n: usize) -> f64 {
    n as f64
}

/// Widens a `u64` count into `f64` (rounding above 2^53, as
/// [`f64_from_usize`]).
#[inline]
#[must_use]
pub fn f64_from_u64(n: u64) -> f64 {
    n as f64
}

/// Converts a `usize` count to `u64`. Lossless on every supported
/// platform (`usize` is at most 64 bits).
#[inline]
#[must_use]
pub fn u64_from_usize(n: usize) -> u64 {
    n as u64
}

/// Narrows a `usize` count to `u32`, saturating at `u32::MAX`.
///
/// Used for compact per-event token counts: a single event never
/// carries more than a prompt's worth of tokens, far below 2^32, so
/// saturation is a theoretical backstop rather than an expected path.
#[inline]
#[must_use]
pub fn u32_from_usize(n: usize) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}

/// Narrows a `u64` count to `usize`, saturating at `usize::MAX`
/// (lossless on 64-bit platforms).
#[inline]
pub fn usize_from_u64(n: u64) -> usize {
    usize::try_from(n).unwrap_or(usize::MAX)
}

/// Widens a `u32` count to `usize`. Lossless on every supported
/// platform (`usize` is at least 32 bits).
#[inline]
#[must_use]
pub fn usize_from_u32(n: u32) -> usize {
    n as usize
}

/// Converts an `f64` to a `usize` count, truncating toward zero.
///
/// Saturates: negative values and NaN become `0`, values above
/// `usize::MAX` become `usize::MAX` (the semantics of Rust's float→int
/// `as`, made explicit here).
#[inline]
#[must_use]
pub fn usize_from_f64(x: f64) -> usize {
    x as usize
}

/// Converts an `f64` to a `u64` count, truncating toward zero.
///
/// Saturates exactly like [`usize_from_f64`].
#[inline]
#[must_use]
pub fn u64_from_f64(x: f64) -> u64 {
    x as u64
}

/// Rounds an `f64` to the nearest `u64`, halves away from zero; NaN and
/// negative values give `0`, and values above `u64::MAX` saturate.
///
/// `x.max(0.0).round() as u64` without the libm call `round` makes on
/// baseline x86-64. Below 2^53 the truncation and the fraction
/// `x - whole` are exact; at and above it `x` is whole already.
#[inline]
#[must_use]
pub fn u64_from_f64_rounded(x: f64) -> u64 {
    let whole = u64_from_f64(x);
    if x - f64_from_u64(whole) >= 0.5 {
        whole.saturating_add(1)
    } else {
        whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn float_to_int_saturates() {
        assert_eq!(usize_from_f64(f64::NAN), 0);
        assert_eq!(usize_from_f64(-7.5), 0);
        assert_eq!(usize_from_f64(f64::INFINITY), usize::MAX);
        assert_eq!(u64_from_f64(f64::NAN), 0);
        assert_eq!(u64_from_f64(1e300), u64::MAX);
    }

    #[test]
    fn widening_is_exact_below_2_pow_53() {
        assert_eq!(f64_from_usize(1 << 52), 4_503_599_627_370_496.0);
        assert_eq!(f64_from_u64(1 << 52), 4_503_599_627_370_496.0);
        assert_eq!(u64_from_usize(usize::MAX), usize::MAX as u64);
    }

    #[test]
    fn u32_narrowing_saturates_and_round_trips() {
        assert_eq!(u32_from_usize(12_345), 12_345);
        assert_eq!(u32_from_usize(usize::MAX), u32::MAX);
        assert_eq!(usize_from_u32(u32::MAX), u32::MAX as usize);
        assert_eq!(usize_from_u32(u32_from_usize(77)), 77);
    }

    /// The libm rounding [`u64_from_f64_rounded`] replaces: its oracle.
    fn libm_round(x: f64) -> u64 {
        x.max(0.0).round() as u64
    }

    #[test]
    fn rounding_matches_libm_at_every_edge() {
        let two = |e: i32| 2f64.powi(e);
        let edges = [
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            f64::from_bits(1), // the smallest subnormal
            f64::MIN_POSITIVE,
            0.5,
            1.5,
            2.5,
            -0.5,
            -1.5,
            two(52) - 0.5,
            two(52) + 1.0,
            two(53) - 1.0,
            two(53),
            two(53) + 2.0,
            two(63),
            two(64),
            f64::MAX,
            f64::MIN,
        ];
        for edge in edges {
            // Each edge and its two neighbours in the f64 bit order.
            for x in [
                edge,
                f64::from_bits(edge.to_bits().wrapping_sub(1)),
                f64::from_bits(edge.to_bits() + 1),
            ] {
                assert_eq!(
                    u64_from_f64_rounded(x),
                    libm_round(x),
                    "{x:e} = {:#x}",
                    x.to_bits()
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]
        #[test]
        fn rounding_matches_libm(bits in 0u64..=u64::MAX, whole in 0u64..1 << 54, quarters in 0u64..4) {
            // Arbitrary bit patterns, then values on and between the halves.
            let x = f64::from_bits(bits);
            prop_assert_eq!(u64_from_f64_rounded(x), libm_round(x));
            let near = whole as f64 + quarters as f64 * 0.25;
            prop_assert_eq!(u64_from_f64_rounded(near), libm_round(near));
        }
    }

    proptest! {
        /// Counts in the simulator's operating range round-trip exactly.
        #[test]
        fn usize_round_trips_through_f64(n in 0usize..1 << 50) {
            prop_assert_eq!(usize_from_f64(f64_from_usize(n)), n);
        }

        /// Truncation never exceeds the input.
        #[test]
        fn truncation_is_monotone(x in 0.0f64..1e15) {
            prop_assert!(f64_from_u64(u64_from_f64(x)) <= x);
        }
    }
}
