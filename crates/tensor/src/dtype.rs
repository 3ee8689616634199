//! Element dtypes and software precision-conversion kernels.
//!
//! The stack computes in f32 everywhere; this module defines the *storage*
//! formats a tensor's values may be held in between computations:
//!
//! * [`DType::F32`] — the native format; storage is lossless.
//! * [`DType::F16`] — IEEE 754 binary16, converted with round-to-nearest-even
//!   including gradual underflow (subnormals), signed zeros, ±inf and NaN.
//! * [`DType::Bf16`] — bfloat16 (truncated-exponent f32), round-to-nearest-even.
//!
//! Every conversion here is a pure elementwise function of its input bits,
//! so any backend — scalar fold, portable SIMD body, or a
//! `#[target_feature]` recompilation of the portable body — produces bitwise
//! identical results at any thread count. That property is what lets the
//! mixed-precision training path keep the repo's determinism contract.
//!
//! The half-precision conversions are software implementations (no `f16`
//! language type, no intrinsics) so they behave identically on every host.

/// A tensor element storage format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DType {
    /// 32-bit IEEE float — the native compute format.
    F32,
    /// 16-bit IEEE binary16 with gradual underflow.
    F16,
    /// bfloat16: f32 with the low 16 mantissa bits rounded away.
    Bf16,
}

impl DType {
    /// Canonical lower-case name (`"f32"`, `"f16"`, `"bf16"`).
    pub fn name(self) -> &'static str {
        match self {
            DType::F32 => "f32",
            DType::F16 => "f16",
            DType::Bf16 => "bf16",
        }
    }

    /// Parses a dtype name (case-insensitive): the one parse behind
    /// `--dtype`, a job spec's `dtype` and a snapshot's dtype.
    ///
    /// # Errors
    ///
    /// Names the unknown dtype and the known ones.
    pub fn parse(s: &str) -> Result<DType, String> {
        match s.to_ascii_lowercase().as_str() {
            "f32" => Ok(DType::F32),
            "f16" => Ok(DType::F16),
            "bf16" => Ok(DType::Bf16),
            _ => Err(format!("unknown dtype {s:?} (expected f32 | f16 | bf16)")),
        }
    }

    /// Exact serialized payload size, in bytes, of `n` elements.
    ///
    /// # Panics
    ///
    /// Panics if the size overflows `usize`.
    pub fn nbytes(self, n: usize) -> usize {
        let width = match self {
            DType::F32 => 4,
            DType::F16 | DType::Bf16 => 2,
        };
        n.checked_mul(width).expect("payload size overflows usize")
    }

    /// Rounds one value through this storage format and back to f32.
    /// Identity for `F32`.
    pub fn round_val(self, x: f32) -> f32 {
        match self {
            DType::F32 => x,
            DType::F16 => f16_bits_to_f32(f32_to_f16_bits(x)),
            DType::Bf16 => bf16_bits_to_f32(f32_to_bf16_bits(x)),
        }
    }

    /// Rounds every element of `xs` in place through this storage format.
    /// No-op for `F32`.
    pub fn round_slice(self, xs: &mut [f32]) {
        match self {
            DType::F32 => {}
            DType::F16 => {
                for x in xs {
                    *x = f16_bits_to_f32(f32_to_f16_bits(*x));
                }
            }
            DType::Bf16 => {
                for x in xs {
                    *x = bf16_bits_to_f32(f32_to_bf16_bits(*x));
                }
            }
        }
    }
}

impl std::fmt::Display for DType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Converts an f32 to IEEE binary16 bits with round-to-nearest-even.
///
/// Handles every edge of the format explicitly: values whose magnitude
/// rounds to ≥ 2^16 become ±inf, magnitudes below 2^-25 (or exactly 2^-25,
/// which ties to even) become signed zero, the range [2^-25, 2^-14) lands on
/// the subnormal grid with a correct tie-to-even at every halfway point, and
/// NaNs map to the canonical quiet NaN preserving sign.
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let man = bits & 0x007f_ffff;
    if exp == 255 {
        // inf stays inf; any NaN payload collapses to the canonical quiet NaN
        return if man == 0 {
            sign | 0x7c00
        } else {
            sign | 0x7e00
        };
    }
    let e = exp - 127 + 15; // rebiased f16 exponent
    if e >= 31 {
        return sign | 0x7c00; // overflow to inf
    }
    if e <= 0 {
        // subnormal range (or underflow to zero)
        if e < -10 {
            // magnitude < 2^-25, or == 2^-25 tying to even zero
            return sign;
        }
        // implicit leading 1, then shift the 24-bit significand onto the
        // 2^-24 subnormal grid with round-to-nearest-even on the dropped bits
        let m = man | 0x0080_0000;
        let shift = (14 - e) as u32; // 14..=24
        let h = (m >> shift) as u16;
        let rem = m & ((1u32 << shift) - 1);
        let half = 1u32 << (shift - 1);
        // a carry out of the subnormal mantissa lands on exponent 1 with
        // mantissa 0, which is exactly the smallest normal — no special case
        return if rem > half || (rem == half && (h & 1) == 1) {
            sign | (h + 1)
        } else {
            sign | h
        };
    }
    // normal range: keep the top 10 mantissa bits, RNE on the dropped 13
    let h = (((e as u32) << 10) as u16) | ((man >> 13) as u16);
    let rem = man & 0x1fff;
    // a carry here can overflow the mantissa into the exponent (correct:
    // rounds up to the next binade) and from 0x7bff into 0x7c00 = inf
    // (correct: magnitudes ≥ 65520 round to inf)
    if rem > 0x1000 || (rem == 0x1000 && (h & 1) == 1) {
        sign | (h + 1)
    } else {
        sign | h
    }
}

/// Widens IEEE binary16 bits to f32. Exact: every f16 value (including
/// subnormals) is representable in f32. NaN payloads are preserved.
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h as u32) & 0x8000) << 16;
    let exp = (h >> 10) & 0x1f;
    let man = (h & 0x03ff) as u32;
    if exp == 0 {
        if man == 0 {
            return f32::from_bits(sign); // signed zero
        }
        // subnormal: man × 2^-24, computed exactly in f32
        let v = (man as f32) * (1.0 / 16_777_216.0);
        return if sign != 0 { -v } else { v };
    }
    if exp == 31 {
        return f32::from_bits(sign | 0x7f80_0000 | (man << 13));
    }
    f32::from_bits(sign | ((exp as u32 + 112) << 23) | (man << 13))
}

/// Converts an f32 to bfloat16 bits with round-to-nearest-even.
///
/// bf16 shares f32's exponent, so this is a pure mantissa rounding: add the
/// tie-breaking bias and truncate. Overflow to ±inf falls out of the carry.
/// NaNs map to the canonical quiet NaN preserving sign (the bias trick could
/// otherwise round a NaN's mantissa to zero, turning it into inf).
pub fn f32_to_bf16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    if x.is_nan() {
        return (((bits >> 16) & 0x8000) | 0x7fc0) as u16;
    }
    let round = 0x7fff + ((bits >> 16) & 1);
    ((bits + round) >> 16) as u16
}

/// Widens bfloat16 bits to f32 (exact: bf16 is a prefix of f32).
pub fn bf16_bits_to_f32(b: u16) -> f32 {
    f32::from_bits((b as u32) << 16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f16_basic_values() {
        assert_eq!(f32_to_f16_bits(0.0), 0x0000);
        assert_eq!(f32_to_f16_bits(-0.0), 0x8000);
        assert_eq!(f32_to_f16_bits(1.0), 0x3c00);
        assert_eq!(f32_to_f16_bits(-2.0), 0xc000);
        assert_eq!(f32_to_f16_bits(65504.0), 0x7bff); // f16 max
        assert_eq!(f32_to_f16_bits(f32::INFINITY), 0x7c00);
        assert_eq!(f32_to_f16_bits(f32::NEG_INFINITY), 0xfc00);
        assert_eq!(f32_to_f16_bits(f32::NAN) & 0x7c00, 0x7c00);
        assert_ne!(f32_to_f16_bits(f32::NAN) & 0x03ff, 0);
    }

    #[test]
    fn f16_overflow_and_ties() {
        // 65520 is the midpoint between f16 max (65504) and the next
        // binade: ties to even = inf
        assert_eq!(f32_to_f16_bits(65520.0), 0x7c00);
        assert_eq!(f32_to_f16_bits(65519.9), 0x7bff);
        // 2^-25 ties to even zero; anything above rounds to the smallest
        // subnormal
        assert_eq!(f32_to_f16_bits(f32::from_bits(0x3300_0000)), 0x0000);
        assert_eq!(f32_to_f16_bits(f32::from_bits(0x3300_0001)), 0x0001);
        // 1.5 × 2^-25 ties to even 2^-24
        assert_eq!(f32_to_f16_bits(1.5 * f32::from_bits(0x3300_0000)), 0x0001);
    }

    #[test]
    fn f16_round_trip_all_bit_patterns() {
        // every finite f16 must survive widen → narrow exactly
        for h in 0u16..=0xffff {
            let exp = (h >> 10) & 0x1f;
            if exp == 31 {
                continue; // inf/NaN handled elsewhere
            }
            let back = f32_to_f16_bits(f16_bits_to_f32(h));
            assert_eq!(back, h, "f16 bits {h:#06x} did not round-trip");
        }
    }

    #[test]
    fn bf16_basic_and_ties() {
        assert_eq!(f32_to_bf16_bits(1.0), 0x3f80);
        assert_eq!(bf16_bits_to_f32(0x3f80), 1.0);
        assert_eq!(f32_to_bf16_bits(f32::INFINITY), 0x7f80);
        // tie: mantissa 0x8000 below an even target truncates
        assert_eq!(f32_to_bf16_bits(f32::from_bits(0x3f80_8000)), 0x3f80);
        // tie above an odd target rounds up
        assert_eq!(f32_to_bf16_bits(f32::from_bits(0x3f81_8000)), 0x3f82);
        // NaN survives (the carry trick alone would produce inf here)
        let n = f32_to_bf16_bits(f32::from_bits(0x7f80_0001));
        assert!(bf16_bits_to_f32(n).is_nan());
    }

    #[test]
    fn dtype_parse_and_round() {
        assert_eq!(DType::parse("F16"), Ok(DType::F16));
        assert!(DType::parse("f64").is_err());
        assert_eq!(DType::F16.nbytes(40), 80);
        assert_eq!(DType::F32.nbytes(40), 160);
        assert_eq!(DType::F32.round_val(0.1), 0.1);
        let r = DType::F16.round_val(0.1);
        assert!(r != 0.1 && (r - 0.1).abs() < 1e-4);
        let mut xs = [1.0f32, 2.5e-5, -3.0];
        DType::Bf16.round_slice(&mut xs);
        assert_eq!(xs[0], 1.0);
        assert_eq!(xs[2], -3.0);
    }

    #[test]
    #[should_panic(expected = "payload size overflows usize")]
    fn nbytes_panics_on_overflow() {
        let _ = DType::F32.nbytes(usize::MAX / 2);
    }
}
