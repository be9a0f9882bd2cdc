//! 8-bit minifloat wrapper types.
//!
//! The paper (§II-A) uses an 8-bit "minifloat" as its narrowest storage
//! precision. We provide both OCP FP8 variants; the solver uses **E4M3**
//! (more mantissa, the common choice for storing values rather than
//! gradients), and E5M2 is available for experimentation.

use crate::minifloat::{E4M3, E5M2};
use std::cmp::Ordering;
use std::fmt;

/// OCP FP8 E4M3 value (1 sign, 4 exponent, 3 mantissa bits, bias 7).
///
/// No infinities; overflow saturates to ±448 (the `satfinite` conversion
/// mode). `S.1111.111` is NaN.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Fp8E4M3(pub u8);

/// OCP FP8 E5M2 value (1 sign, 5 exponent, 2 mantissa bits, bias 15).
///
/// IEEE-style Inf/NaN in the top binade; max finite 57344.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Fp8E5M2(pub u8);

macro_rules! impl_fp8 {
    ($ty:ident, $fmt:expr, $name:literal) => {
        impl $ty {
            /// Positive zero.
            pub const ZERO: $ty = $ty(0);

            /// Builds a value from its raw 8-bit code.
            #[inline]
            pub const fn from_bits(bits: u8) -> Self {
                $ty(bits)
            }

            /// Returns the raw 8-bit code.
            #[inline]
            pub const fn to_bits(self) -> u8 {
                self.0
            }

            /// Converts from `f64` with round-to-nearest-even.
            pub fn from_f64(v: f64) -> Self {
                $ty($fmt.encode(v))
            }

            /// Converts from `f32` with round-to-nearest-even.
            pub fn from_f32(v: f32) -> Self {
                // f32 -> f64 widening is exact, so a single rounding happens.
                $ty($fmt.encode(v as f64))
            }

            /// Widens to `f64` (exact). Reads a table of all 256 codes,
            /// decoded once: tile loads and requantization widen one value
            /// per nonzero.
            #[inline]
            pub fn to_f64(self) -> f64 {
                static WIDENED: std::sync::OnceLock<[f64; 256]> = std::sync::OnceLock::new();
                WIDENED.get_or_init(|| std::array::from_fn(|code| $fmt.decode(code as u8)))
                    [usize::from(self.0)]
            }

            /// Widens to `f32` (exact — all FP8 values fit in f32).
            pub fn to_f32(self) -> f32 {
                self.to_f64() as f32
            }

            /// Largest finite magnitude of the format.
            pub fn max_finite() -> f64 {
                $fmt.max_finite()
            }

            /// Smallest positive normal magnitude.
            pub fn min_normal() -> f64 {
                $fmt.min_normal()
            }

            /// Smallest positive subnormal magnitude.
            pub fn min_subnormal() -> f64 {
                $fmt.min_subnormal()
            }

            /// `true` for any NaN code.
            pub fn is_nan(self) -> bool {
                self.to_f64().is_nan()
            }

            /// `true` when finite (not NaN, not infinite).
            pub fn is_finite(self) -> bool {
                self.to_f64().is_finite()
            }

            /// Absolute value.
            pub fn abs(self) -> Self {
                $ty(self.0 & 0x7f)
            }

            /// Negation (sign-bit flip).
            #[allow(clippy::should_implement_trait)] // bitwise IEEE negate; `Neg` is also implemented
            pub fn neg(self) -> Self {
                $ty(self.0 ^ 0x80)
            }
        }

        impl std::ops::Neg for $ty {
            type Output = $ty;
            fn neg(self) -> $ty {
                $ty(self.0 ^ 0x80)
            }
        }

        impl From<f64> for $ty {
            fn from(v: f64) -> Self {
                Self::from_f64(v)
            }
        }

        impl From<f32> for $ty {
            fn from(v: f32) -> Self {
                Self::from_f32(v)
            }
        }

        impl From<$ty> for f64 {
            fn from(v: $ty) -> f64 {
                v.to_f64()
            }
        }

        impl From<$ty> for f32 {
            fn from(v: $ty) -> f32 {
                v.to_f32()
            }
        }

        impl PartialOrd for $ty {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                self.to_f64().partial_cmp(&other.to_f64())
            }
        }

        impl fmt::Debug for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($name, "({})"), self.to_f64())
            }
        }

        impl fmt::Display for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Display::fmt(&self.to_f64(), f)
            }
        }
    };
}

impl_fp8!(Fp8E4M3, E4M3, "Fp8E4M3");
impl_fp8!(Fp8E5M2, E5M2, "Fp8E5M2");

/// Picks the per-tile scaling exponent for *scaled* FP8 storage: the
/// smallest `e` such that `max_abs / 2^e` fits E4M3's finite range, so the
/// tile's largest magnitude lands in the format's top binade and the whole
/// tile uses as much of the 8-bit dynamic range as possible. Negative `e`
/// scales small-magnitude tiles *up*, recovering resolution plain FP8
/// would waste on empty headroom.
///
/// Deterministic by construction: a pure function of `max_abs` computed
/// with exact power-of-two arithmetic (the `log2` seed is verified and
/// corrected by exact comparisons). Returns 0 for zero / non-finite input.
pub fn pick_scale_exp(max_abs: f64) -> i16 {
    if !(max_abs.is_finite() && max_abs > 0.0) {
        return 0;
    }
    let cap = Fp8E4M3::max_finite();
    let mut e = (max_abs / cap).log2().ceil() as i32;
    e = e.clamp(-1100, 1100);
    // Guard the floating-point seed with exact checks: 2^e is exact, and
    // division by a power of two is exact, so both comparisons are exact.
    while e < 1100 && max_abs / 2f64.powi(e) > cap {
        e += 1;
    }
    while e > -1100 && max_abs / 2f64.powi(e - 1) <= cap {
        e -= 1;
    }
    e as i16
}

/// Quantizes `v` through scaled E4M3 storage with scaling exponent
/// `scale_exp`: the stored byte is `E4M3(v / 2^e)` and the decoded value is
/// `E4M3(v / 2^e) * 2^e`. Both scalings are exact (powers of two), so the
/// only rounding is the E4M3 conversion itself; the round-trip error is
/// bounded by `max(|v| * 2^-4, 2^(e-10))` (half-ULP of a normal, half the
/// scaled subnormal step).
#[inline]
pub fn quantize_scaled_e4m3(v: f64, scale_exp: i16) -> f64 {
    let s = 2f64.powi(scale_exp as i32);
    Fp8E4M3::from_f64(v / s).to_f64() * s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e4m3_basics() {
        assert_eq!(Fp8E4M3::from_f64(1.0).to_f64(), 1.0);
        assert_eq!(Fp8E4M3::from_f64(-2.0).to_f64(), -2.0);
        assert_eq!(Fp8E4M3::from_f64(1000.0).to_f64(), 448.0);
        assert_eq!(Fp8E4M3::max_finite(), 448.0);
        assert!(Fp8E4M3::from_bits(0x7f).is_nan());
    }

    #[test]
    fn e5m2_basics() {
        assert_eq!(Fp8E5M2::from_f64(1.0).to_f64(), 1.0);
        assert_eq!(Fp8E5M2::from_f64(1e9).to_f64(), f64::INFINITY);
        assert_eq!(Fp8E5M2::max_finite(), 57344.0);
    }

    #[test]
    fn neg_abs() {
        let v = Fp8E4M3::from_f64(-3.5);
        assert_eq!(v.abs().to_f64(), 3.5);
        assert_eq!(v.neg().to_f64(), 3.5);
    }

    #[test]
    fn f32_and_f64_paths_agree() {
        let vals = [0.0f32, 1.0, -1.5, 0.07, 300.0, 1e-3, -0.125];
        for &v in &vals {
            assert_eq!(
                Fp8E4M3::from_f32(v).to_bits(),
                Fp8E4M3::from_f64(v as f64).to_bits()
            );
            assert_eq!(
                Fp8E5M2::from_f32(v).to_bits(),
                Fp8E5M2::from_f64(v as f64).to_bits()
            );
        }
    }

    #[test]
    fn ordering_on_finites() {
        assert!(Fp8E4M3::from_f64(1.0) < Fp8E4M3::from_f64(2.0));
        assert!(Fp8E4M3::from_f64(-448.0) < Fp8E4M3::from_f64(448.0));
    }

    #[test]
    fn scale_exp_is_minimal_and_sufficient() {
        for &m in &[1e-30, 1e-6, 0.07, 1.0, 448.0, 449.0, 1e4, 1e12, 1e300] {
            let e = pick_scale_exp(m) as i32;
            assert!(m / 2f64.powi(e) <= 448.0, "max_abs {m} exp {e}");
            if e > -126 {
                assert!(m / 2f64.powi(e - 1) > 448.0, "exp {e} not minimal for {m}");
            }
        }
        assert_eq!(pick_scale_exp(0.0), 0);
        assert_eq!(pick_scale_exp(f64::NAN), 0);
        assert_eq!(pick_scale_exp(f64::INFINITY), 0);
        // In-range magnitudes need no scaling or scale *up*.
        assert!(pick_scale_exp(448.0) <= 0);
        assert!(pick_scale_exp(1e-6) < 0);
    }

    #[test]
    fn scaled_quantize_round_trip_envelope() {
        let e = pick_scale_exp(1e6);
        for &v in &[1e6, -7.3e5, 1234.5, 0.0, -1e6] {
            let q = quantize_scaled_e4m3(v, e);
            let bound = (v.abs() * 2f64.powi(-4)).max(2f64.powi(e as i32 - 10));
            assert!((q - v).abs() <= bound, "v {v} q {q} bound {bound}");
        }
        // scale_exp = 0 degenerates to plain E4M3.
        assert_eq!(
            quantize_scaled_e4m3(0.1, 0),
            Fp8E4M3::from_f64(0.1).to_f64()
        );
    }
}
