//! Value distributions controlling the precision character of generated
//! matrices.
//!
//! The "enough good" criterion (paper §II-A) classifies a nonzero by whether
//! it is (nearly) exactly representable in a narrow type. Real matrices
//! differ wildly here — Fig. 1 shows `garon2` mostly FP16/FP8, `nmos3` half
//! FP64 / half FP8, `ASIC_320k` FP8 blocks with FP64 hub connections. The
//! classes below generate values landing in chosen classification buckets.

use rand::{Rng, RngExt};

/// Which precision bucket generated values should classify into.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ValueClass {
    /// Small signed integers (exact in FP8 E4M3): mass matrices, incidence
    /// and stencil matrices.
    Integer,
    /// Dyadic rationals `k / 2^10`, `|k| ≤ 1024` (exact in FP16): scaled
    /// stencils, structured FEM matrices.
    Dyadic,
    /// Random `f32` values (exact in FP32, not below): single-precision
    /// source data.
    SingleExact,
    /// Generic doubles in [-1, 1] (need FP64).
    Real,
    /// Log-uniform magnitudes over ~20 decades (need FP64; circuit-style
    /// wide dynamic range).
    Wide,
    /// Log-uniform magnitudes over ~5 decades (need FP64): stiff but
    /// solvable — BiCGSTAB's attainable-accuracy floor stays below the
    /// 1e-10 tolerance, unlike the full [`ValueClass::Wide`] span.
    WideModerate,
}

impl ValueClass {
    /// Samples one nonzero value of this class. Never returns exactly zero.
    pub fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        match self {
            ValueClass::Integer => {
                let mag = rng.random_range(1..=15) as f64;
                if rng.random_bool(0.5) {
                    -mag
                } else {
                    mag
                }
            }
            ValueClass::Dyadic => {
                let k = rng.random_range(1..=1024) as f64;
                let v = k / 1024.0;
                if rng.random_bool(0.5) {
                    -v
                } else {
                    v
                }
            }
            ValueClass::SingleExact => {
                let v: f32 = rng.random_range(-1.0f32..1.0);
                if v == 0.0 {
                    0.5
                } else {
                    v as f64
                }
            }
            ValueClass::Real => {
                let v: f64 = rng.random_range(-1.0..1.0);
                if v == 0.0 {
                    0.123_456_789
                } else {
                    v
                }
            }
            ValueClass::WideModerate => {
                let exp: f64 = rng.random_range(-2.5..2.5);
                let mant: f64 = rng.random_range(1.0..10.0);
                let v = mant * 10f64.powf(exp);
                if rng.random_bool(0.5) {
                    -v
                } else {
                    v
                }
            }
            ValueClass::Wide => {
                let exp: f64 = rng.random_range(-10.0..10.0);
                let mant: f64 = rng.random_range(1.0..10.0);
                let v = mant * 10f64.powf(exp);
                if rng.random_bool(0.5) {
                    -v
                } else {
                    v
                }
            }
        }
    }

    /// Samples a strictly positive value (for diagonals).
    pub fn sample_positive<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        self.sample(rng).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_precision::{classify_value, ClassifyOptions, Precision};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn classify_many(class: ValueClass, n: usize) -> [usize; 4] {
        let mut rng = StdRng::seed_from_u64(7);
        let opts = ClassifyOptions::default();
        let mut h = [0usize; 4];
        for _ in 0..n {
            let v = class.sample(&mut rng);
            h[classify_value(v, &opts).tile_code() as usize] += 1;
        }
        h
    }

    #[test]
    fn integer_class_is_fp8() {
        let h = classify_many(ValueClass::Integer, 500);
        assert_eq!(h[3], 500, "all small integers classify FP8: {h:?}");
    }

    #[test]
    fn dyadic_class_is_fp16_or_lower() {
        let h = classify_many(ValueClass::Dyadic, 500);
        assert_eq!(h[0], 0);
        assert_eq!(h[1], 0);
        assert!(h[2] > 100, "most dyadics need FP16: {h:?}");
    }

    #[test]
    fn single_class_is_fp32_or_lower() {
        let h = classify_many(ValueClass::SingleExact, 500);
        assert_eq!(h[0], 0, "f32 values never need FP64: {h:?}");
        assert!(h[1] > 300, "most random f32s need full FP32: {h:?}");
    }

    #[test]
    fn real_and_wide_classes_are_fp64() {
        for class in [ValueClass::Real, ValueClass::Wide] {
            let h = classify_many(class, 500);
            assert!(h[0] >= 498, "{class:?} must be FP64-dominated: {h:?}");
        }
    }

    #[test]
    fn samples_never_zero() {
        let mut rng = StdRng::seed_from_u64(42);
        for class in [
            ValueClass::Integer,
            ValueClass::Dyadic,
            ValueClass::SingleExact,
            ValueClass::Real,
            ValueClass::Wide,
        ] {
            for _ in 0..200 {
                assert_ne!(class.sample(&mut rng), 0.0);
                assert!(class.sample_positive(&mut rng) > 0.0);
            }
        }
    }

    #[test]
    fn deterministic_with_seed() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            assert_eq!(
                ValueClass::Real.sample(&mut a),
                ValueClass::Real.sample(&mut b)
            );
        }
    }

    #[test]
    fn wide_class_spans_decades() {
        let mut rng = StdRng::seed_from_u64(3);
        let vals: Vec<f64> = (0..200)
            .map(|_| ValueClass::Wide.sample(&mut rng).abs())
            .collect();
        let min = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = vals.iter().cloned().fold(0.0, f64::max);
        assert!(max / min > 1e10, "range {min}..{max}");
    }

    // Silence the unused import warning when optimizations fold it away.
    #[allow(dead_code)]
    fn _use_precision(p: Precision) -> Precision {
        p
    }
}
