//! Byte-packed value storage.
//!
//! The tiled format stores each tile's nonzero values in the tile's own
//! precision (paper Fig. 5, the `Val` array). To keep memory accounting
//! honest (Fig. 13 compares the tiled format's footprint against 3-array
//! CSR), values are physically packed into a byte buffer — one, two, four or
//! eight bytes per value depending on the owning tile's `TilePrec` — rather
//! than kept as `f64` with a virtual size.
//!
//! A [`PackedValuesBuilder`] appends runs of values, each run with its own
//! precision; the finished [`PackedValues`] supports random-access decoding
//! given `(byte_offset, precision)`, which the tiled format derives from its
//! per-tile metadata.

use crate::fp16::Fp16;
use crate::fp8::Fp8E4M3;
use crate::precision::Precision;
use bytes::{Bytes, BytesMut};

/// Immutable packed value buffer.
#[derive(Clone, Debug, Default)]
pub struct PackedValues {
    buf: Bytes,
}

/// Builder that appends precision-tagged runs of values.
#[derive(Debug, Default)]
pub struct PackedValuesBuilder {
    buf: BytesMut,
}

impl PackedValuesBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder with capacity for `bytes` bytes.
    pub fn with_capacity(bytes: usize) -> Self {
        PackedValuesBuilder {
            buf: BytesMut::with_capacity(bytes),
        }
    }

    /// Current length in bytes — the offset at which the next run will start.
    #[inline]
    pub fn offset(&self) -> usize {
        self.buf.len()
    }

    /// Appends `vals`, each encoded in `prec`, and returns the byte offset at
    /// which the run starts.
    pub fn push_run(&mut self, vals: &[f64], prec: Precision) -> usize {
        let start = self.buf.len();
        match prec {
            Precision::Fp64 => {
                for &v in vals {
                    self.buf.extend_from_slice(&v.to_le_bytes());
                }
            }
            Precision::Fp32 => {
                for &v in vals {
                    self.buf.extend_from_slice(&(v as f32).to_le_bytes());
                }
            }
            Precision::Fp16 => {
                for &v in vals {
                    self.buf
                        .extend_from_slice(&Fp16::from_f64(v).to_bits().to_le_bytes());
                }
            }
            Precision::Fp8 => {
                for &v in vals {
                    self.buf
                        .extend_from_slice(&[Fp8E4M3::from_f64(v).to_bits()]);
                }
            }
        }
        start
    }

    /// Appends `vals` encoded as *scaled* FP8 (E4M3 of `v / 2^scale_exp`,
    /// one byte per value — the per-tile `scale_exp` is metadata the caller
    /// stores alongside the offset, exactly like the precision tag of
    /// [`PackedValuesBuilder::push_run`]). Returns the starting byte
    /// offset. This is the storage codec of the adaptive re-tiering path's
    /// [`crate::retier::TileTier::ScaledFp8`] tier.
    pub fn push_run_scaled(&mut self, vals: &[f64], scale_exp: i16) -> usize {
        let start = self.buf.len();
        let s = 2f64.powi(scale_exp as i32);
        for &v in vals {
            self.buf
                .extend_from_slice(&[Fp8E4M3::from_f64(v / s).to_bits()]);
        }
        start
    }

    /// Finishes the builder.
    pub fn finish(self) -> PackedValues {
        PackedValues {
            buf: self.buf.freeze(),
        }
    }
}

impl PackedValues {
    /// Total size in bytes (this is the number Fig. 13 accounts for `Val`).
    #[inline]
    pub fn len_bytes(&self) -> usize {
        self.buf.len()
    }

    /// `true` if no values are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Decodes the `idx`-th value of a run starting at `byte_offset` whose
    /// values are encoded in `prec`.
    ///
    /// # Panics
    /// Panics if the access runs past the end of the buffer.
    #[inline]
    pub fn get(&self, byte_offset: usize, prec: Precision, idx: usize) -> f64 {
        let at = byte_offset + idx * prec.bytes();
        match prec {
            Precision::Fp64 => {
                let b: [u8; 8] = self.buf[at..at + 8].try_into().unwrap();
                f64::from_le_bytes(b)
            }
            Precision::Fp32 => {
                let b: [u8; 4] = self.buf[at..at + 4].try_into().unwrap();
                f32::from_le_bytes(b) as f64
            }
            Precision::Fp16 => {
                let b: [u8; 2] = self.buf[at..at + 2].try_into().unwrap();
                Fp16::from_bits(u16::from_le_bytes(b)).to_f64()
            }
            Precision::Fp8 => Fp8E4M3::from_bits(self.buf[at]).to_f64(),
        }
    }

    /// Decodes a whole run of `n` values into `out` (must have length `n`).
    pub fn decode_run(&self, byte_offset: usize, prec: Precision, out: &mut [f64]) {
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.get(byte_offset, prec, i);
        }
    }

    /// The raw encoded bytes.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Decodes a whole run of `n` values into a fresh vector.
    pub fn decode_run_vec(&self, byte_offset: usize, prec: Precision, n: usize) -> Vec<f64> {
        let mut out = vec![0.0; n];
        self.decode_run(byte_offset, prec, &mut out);
        out
    }

    /// Decodes the `idx`-th value of a *scaled* FP8 run written by
    /// [`PackedValuesBuilder::push_run_scaled`] with the same `scale_exp`.
    #[inline]
    pub fn get_scaled(&self, byte_offset: usize, scale_exp: i16, idx: usize) -> f64 {
        Fp8E4M3::from_bits(self.buf[byte_offset + idx]).to_f64() * 2f64.powi(scale_exp as i32)
    }

    /// Decodes a whole scaled-FP8 run into `out` (must have length `n`).
    pub fn decode_run_scaled(&self, byte_offset: usize, scale_exp: i16, out: &mut [f64]) {
        let s = 2f64.powi(scale_exp as i32);
        for (i, o) in out.iter_mut().enumerate() {
            *o = Fp8E4M3::from_bits(self.buf[byte_offset + i]).to_f64() * s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_fp64_run() {
        let mut b = PackedValuesBuilder::new();
        let vals = [1.0, -2.5, 0.1, 1e300];
        let off = b.push_run(&vals, Precision::Fp64);
        let p = b.finish();
        assert_eq!(off, 0);
        assert_eq!(p.len_bytes(), 32);
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(p.get(off, Precision::Fp64, i), v);
        }
    }

    #[test]
    fn mixed_runs_pack_tightly() {
        let mut b = PackedValuesBuilder::new();
        let o64 = b.push_run(&[0.1, 0.2], Precision::Fp64); // 16 bytes
        let o32 = b.push_run(&[1.5, 2.5, 3.5], Precision::Fp32); // 12 bytes
        let o16 = b.push_run(&[1.0], Precision::Fp16); // 2 bytes
        let o8 = b.push_run(&[2.0, -4.0], Precision::Fp8); // 2 bytes
        let p = b.finish();
        assert_eq!((o64, o32, o16, o8), (0, 16, 28, 30));
        assert_eq!(p.len_bytes(), 32);
        assert_eq!(p.get(o64, Precision::Fp64, 1), 0.2);
        assert_eq!(p.get(o32, Precision::Fp32, 2), 3.5);
        assert_eq!(p.get(o16, Precision::Fp16, 0), 1.0);
        assert_eq!(p.get(o8, Precision::Fp8, 1), -4.0);
    }

    #[test]
    fn encoding_applies_quantization() {
        let mut b = PackedValuesBuilder::new();
        let off = b.push_run(&[0.1], Precision::Fp16);
        let p = b.finish();
        let got = p.get(off, Precision::Fp16, 0);
        assert_eq!(got, Precision::Fp16.quantize(0.1));
        assert_ne!(got, 0.1);
    }

    #[test]
    fn decode_run_matches_get() {
        let mut b = PackedValuesBuilder::new();
        let vals = [1.0, 2.0, 3.0, 4.0, 5.0];
        let off = b.push_run(&vals, Precision::Fp8);
        let p = b.finish();
        let out = p.decode_run_vec(off, Precision::Fp8, vals.len());
        assert_eq!(out, vals);
    }

    #[test]
    fn with_capacity_builder() {
        let mut b = PackedValuesBuilder::with_capacity(64);
        b.push_run(&[1.0; 8], Precision::Fp64);
        assert_eq!(b.offset(), 64);
        assert_eq!(b.finish().len_bytes(), 64);
    }

    #[test]
    fn scaled_run_round_trips_through_bytes() {
        use crate::fp8::{pick_scale_exp, quantize_scaled_e4m3};
        let vals = [1.5e6, -2.0e5, 0.0, 7.25e4, 9.9e5];
        let e = pick_scale_exp(1.5e6);
        let mut b = PackedValuesBuilder::new();
        let off = b.push_run_scaled(&vals, e);
        let p = b.finish();
        assert_eq!(p.len_bytes(), vals.len()); // one byte per value
        let mut out = vec![0.0; vals.len()];
        p.decode_run_scaled(off, e, &mut out);
        for (i, (&v, &d)) in vals.iter().zip(&out).enumerate() {
            assert_eq!(d, p.get_scaled(off, e, i));
            // The byte codec applies exactly the scaled-quantization model.
            assert_eq!(d, quantize_scaled_e4m3(v, e));
        }
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_panics() {
        let mut b = PackedValuesBuilder::new();
        b.push_run(&[1.0], Precision::Fp8);
        let p = b.finish();
        p.get(0, Precision::Fp8, 5);
    }
}
