//! Batched, vectorizable sine/cosine evaluation.
//!
//! The gridder and degridder evaluate one `sincos` per (visibility, pixel)
//! pair — by far the most expensive elementary operation of IDG on
//! hardware without special function units. The paper precomputes phasors
//! for whole batches of visibilities with SVML/VML (CPU) or uses the
//! hardware SFU path (`--use_fast_math`, ≤2 ulp) on NVIDIA GPUs.
//!
//! This module reimplements that software layer:
//!
//! * Argument reduction is performed in `f64` (exact for |x| < 2²⁰·π/2,
//!   far beyond the paper's stated ±10⁴ argument range), followed by
//!   single-precision minimax polynomials on the reduced argument
//!   r ∈ [−π/4, π/4].
//! * [`Accuracy::Medium`] uses degree-7/8 polynomials (≈1–4 ulp), the
//!   analogue of SVML's "medium accuracy" (≤4 ulp) setting.
//! * [`Accuracy::Fast`] uses degree-5/6 polynomials (≈2–8 ulp worst case
//!   but cheaper), the analogue of the CUDA fast-math path.
//! * [`Accuracy::High`] delegates to libm `sin_cos` and serves as the
//!   reference the other settings are validated against.
//!
//! The batch API writes separated sine/cosine planes, matching the
//! structure-of-arrays phasor buffers of the optimized CPU kernels, and is
//! written as a straight-line loop over slices so that LLVM auto-vectorizes
//! it. Multiply-adds are unfused (`a * b + c`) and rounding to the nearest
//! quadrant uses a magic-constant shift rather than `round()`: on a build
//! without compile-time FMA/SSE4.1 both `mul_add` and `round` are
//! out-of-line library calls that block vectorization, and the unfused
//! form gives the same bits on every build.

use idg_types::Float;

/// Accuracy/performance setting of the sincos evaluation.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Default)]
pub enum Accuracy {
    /// libm-backed reference (correctly rounded to ~0.5 ulp).
    High,
    /// ≈4 ulp polynomial path — the SVML "medium accuracy" analogue used
    /// for the HASWELL results in the paper.
    #[default]
    Medium,
    /// Cheapest polynomial path — the CUDA `--use_fast_math` analogue
    /// (the paper cites a 2 ulp bound for the hardware SFU path).
    Fast,
}

const FRAC_2_PI: f64 = std::f64::consts::FRAC_2_PI;
/// First 33 bits of π/2 (fdlibm's `pio2_1`). Its low 20 mantissa bits are
/// zero, so `k·PIO2_1` is exact without FMA for every |k| < 2²⁰.
const PIO2_1: f64 = 1.570_796_326_734_125_6;
/// π/2 − `PIO2_1` (fdlibm's `pio2_1t`): the two parts carry π/2 to ~86
/// bits, far more than the f32 result needs for |k| < 2²⁰.
const PIO2_1T: f64 = 6.077_100_506_506_192e-11;

/// 1.5·2⁵²: adding it to a double of magnitude < 2⁵¹ pins the exponent,
/// leaving the integer value (two's complement) in the low mantissa bits.
const QUADRANT_MAGIC: f64 = 6_755_399_441_055_744.0;
/// 1.5·2²³, the f32 analogue (valid for |k| < 2²²).
const QUADRANT_MAGIC_F32: f32 = 12_582_912.0;

/// Round `y` to the nearest integer `k` (ties to even) by the
/// magic-constant shift, returning `(k mod 4, k)`. Adding 1.5·2⁵² pins
/// the exponent, so the sum's low mantissa bits hold `k` in two's
/// complement: the quadrant is read from the bits instead of a
/// `k as i64` cast (a *scalar* `cvttsd2si` + compare/cmov chain per lane
/// that serializes the vectorized batch loops, ~3× on the whole sincos),
/// and subtracting the constant again gives `k` without `round()` (a
/// library call on builds without SSE4.1). Exact for every |y| < 2⁵¹
/// (see `magic_rounding_matches_round_and_integer_cast`).
#[inline(always)]
fn round_quadrant(y: f64) -> (u64, f64) {
    let shifted = y + QUADRANT_MAGIC;
    (shifted.to_bits() & 3, shifted - QUADRANT_MAGIC)
}

/// f32 variant of [`round_quadrant`] for the fast path (|y| < 2²²).
#[inline(always)]
fn round_quadrant_f32(y: f32) -> (u64, f32) {
    let shifted = y + QUADRANT_MAGIC_F32;
    (
        u64::from(shifted.to_bits() & 3),
        shifted - QUADRANT_MAGIC_F32,
    )
}

/// Reduce `x` to `(quadrant, r)` with `r ∈ [−π/4, π/4]` and
/// `x = quadrant·π/2 + r`, using a two-part π/2 (Cody-Waite in f64).
/// `k·PIO2_1` is exact and cancels against `x` without rounding, so the
/// reduction needs no FMA to stay exact.
#[inline(always)]
fn reduce(x: f32) -> (u64, f32) {
    let xd = x.to_f64();
    let (quadrant, k) = round_quadrant(xd * FRAC_2_PI);
    let r = xd - k * PIO2_1;
    let r = r - k * PIO2_1T;
    (quadrant, f32::from_f64(r))
}

/// Cheap all-f32 Cody-Waite reduction used by the fast path. Splits π/2
/// into three f32 parts; exact for the quadrant counts reached below
/// |x| ≈ 10⁵, with residual error growing linearly in the quadrant index
/// (the same trade the CUDA fast-math path makes).
#[inline(always)]
fn reduce_fast(x: f32) -> (u64, f32) {
    const DP1: f32 = 1.570_312_5; // high bits of pi/2
    const DP2: f32 = 4.837_513e-4; // middle bits
    const DP3: f32 = 7.549_79e-8; // low bits
    let (quadrant, k) = round_quadrant_f32(x * std::f32::consts::FRAC_2_PI);
    let r = x - k * DP1;
    let r = r - k * DP2;
    let r = r - k * DP3;
    (quadrant, r)
}

/// Sine polynomial on the reduced argument (Cephes `sinf` minimax
/// coefficients, ≈1 ulp on [−π/4, π/4]).
#[inline(always)]
fn poly_sin(r: f32) -> f32 {
    const S1: f32 = -1.666_665_4e-1;
    const S2: f32 = 8.332_161e-3;
    const S3: f32 = -1.951_529_6e-4;
    let r2 = r * r;
    let p = (S3 * r2 + S2) * r2 + S1;
    p * r2 * r + r
}

/// Cosine polynomial on the reduced argument (Cephes `cosf` minimax
/// coefficients).
#[inline(always)]
fn poly_cos(r: f32) -> f32 {
    const C1: f32 = -0.5;
    const C2: f32 = 4.166_664_6e-2;
    const C3: f32 = -1.388_731_6e-3;
    const C4: f32 = 2.443_315_7e-5;
    let r2 = r * r;
    let p = ((C4 * r2 + C3) * r2 + C2) * r2 + C1;
    p * r2 + 1.0
}

/// Assemble `(sin x, cos x)` from the quadrant and the two polynomials.
///
/// Branchless: the quadrant selects a swap and two sign flips via
/// arithmetic select, so the whole evaluation pipeline stays straight-
/// line and LLVM can vectorize the batch loops (a `match` here forces
/// scalar code and costs ~4× in throughput).
#[inline(always)]
fn combine(quadrant: u64, s: f32, c: f32) -> (f32, f32) {
    let swap = quadrant & 1 != 0;
    let sin_base = if swap { c } else { s };
    let cos_base = if swap { s } else { c };
    // sin negated in quadrants 2,3; cos negated in quadrants 1,2
    let sin_neg = quadrant & 2 != 0;
    let cos_neg = (quadrant + 1) & 2 != 0;
    let sin_val = f32::from_bits(sin_base.to_bits() ^ (u32::from(sin_neg) << 31));
    let cos_val = f32::from_bits(cos_base.to_bits() ^ (u32::from(cos_neg) << 31));
    (sin_val, cos_val)
}

/// Evaluate `(sin x, cos x)` at the requested accuracy.
///
/// Arguments are expected in the paper's benchmark range (|x| ≲ 10⁴ —
/// phases are products of uv-lengths and image coordinates). The Medium
/// reduction is exact for |x| < 2²⁰·π/2 ≈ 1.6·10⁶: there the quadrant
/// count `k` has at most 20 bits, so `k·PIO2_1` is exact (see
/// `pio2_split_is_exact_for_20_bit_quadrants`). Beyond that the product
/// rounds and the error grows with |x|. The Fast path's f32 reduction
/// loses accuracy far earlier (|x| ≈ 10⁵).
#[inline]
pub fn sincos(x: f32, accuracy: Accuracy) -> (f32, f32) {
    match accuracy {
        Accuracy::High => x.sin_cos(),
        Accuracy::Medium => {
            let (q, r) = reduce(x);
            combine(q, poly_sin(r), poly_cos(r))
        }
        Accuracy::Fast => {
            let (q, r) = reduce_fast(x);
            combine(q, poly_sin(r), poly_cos(r))
        }
    }
}

/// Batched sincos: writes `sin(x)` and `cos(x)` planes for a whole phase
/// buffer, the analogue of one SVML/VML call per visibility batch.
///
/// # Panics
/// Panics when the output slices are shorter than the input.
pub fn sincos_batch(xs: &[f32], sin_out: &mut [f32], cos_out: &mut [f32], accuracy: Accuracy) {
    assert!(sin_out.len() >= xs.len() && cos_out.len() >= xs.len());
    match accuracy {
        Accuracy::High => {
            for ((x, s), c) in xs.iter().zip(sin_out.iter_mut()).zip(cos_out.iter_mut()) {
                let (sv, cv) = x.sin_cos();
                *s = sv;
                *c = cv;
            }
        }
        Accuracy::Medium => {
            for ((x, s), c) in xs.iter().zip(sin_out.iter_mut()).zip(cos_out.iter_mut()) {
                let (q, r) = reduce(*x);
                let (sv, cv) = combine(q, poly_sin(r), poly_cos(r));
                *s = sv;
                *c = cv;
            }
        }
        Accuracy::Fast => {
            for ((x, s), c) in xs.iter().zip(sin_out.iter_mut()).zip(cos_out.iter_mut()) {
                let (q, r) = reduce_fast(*x);
                let (sv, cv) = combine(q, poly_sin(r), poly_cos(r));
                *s = sv;
                *c = cv;
            }
        }
    }
}

/// Units-in-the-last-place distance between `a` and the exact value `exact`.
///
/// Used by the accuracy tests to verify the paper-quoted error bounds
/// (4 ulp medium, looser fast path).
pub fn ulp_error(a: f32, exact: f64) -> f64 {
    if exact == 0.0 {
        return if a == 0.0 {
            0.0
        } else {
            (a.abs() / f32::MIN_POSITIVE) as f64
        };
    }
    let ulp = {
        let e = (a.abs().max(f32::MIN_POSITIVE)).to_bits();
        f32::from_bits(e + 1) as f64 - f32::from_bits(e) as f64
    };
    ((a as f64) - exact).abs() / ulp
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn max_ulp_over_range(acc: Accuracy, lo: f32, hi: f32, n: usize) -> (f64, f64) {
        let mut max_s = 0.0f64;
        let mut max_c = 0.0f64;
        for i in 0..n {
            let x = lo + (hi - lo) * (i as f32 / (n - 1) as f32);
            let (s, c) = sincos(x, acc);
            max_s = max_s.max(ulp_error(s, (x as f64).sin()));
            max_c = max_c.max(ulp_error(c, (x as f64).cos()));
        }
        (max_s, max_c)
    }

    #[test]
    fn high_accuracy_matches_libm() {
        for i in 0..1000 {
            let x = (i as f32) * 0.01 - 5.0;
            assert_eq!(sincos(x, Accuracy::High), x.sin_cos());
        }
    }

    #[test]
    fn medium_meets_svml_medium_bound() {
        // SVML medium accuracy is <= 4 ulp; check over the paper's
        // benchmark argument range [-1e4, 1e4].
        let (s, c) = max_ulp_over_range(Accuracy::Medium, -1e4, 1e4, 100_000);
        assert!(s <= 4.0, "sin medium ulp error {s}");
        assert!(c <= 4.0, "cos medium ulp error {c}");
    }

    #[test]
    fn fast_is_tight_near_zero_and_absolutely_bounded_far_out() {
        // Near the origin the fast path matches the CUDA-quoted ~2 ulp.
        let (s, c) = max_ulp_over_range(Accuracy::Fast, -6.3, 6.3, 100_000);
        assert!(s <= 4.0, "sin fast ulp error near 0: {s}");
        assert!(c <= 4.0, "cos fast ulp error near 0: {c}");
        // Over the full benchmark range the f32 Cody-Waite reduction keeps
        // the *absolute* error tiny even where relative ulp blows up at
        // zero crossings.
        let mut max_abs = 0.0f64;
        for i in 0..100_000 {
            let x = -1e4 + 0.2 * i as f32;
            let (s, c) = sincos(x, Accuracy::Fast);
            max_abs = max_abs.max(((s as f64) - (x as f64).sin()).abs());
            max_abs = max_abs.max(((c as f64) - (x as f64).cos()).abs());
        }
        assert!(max_abs < 2e-6, "fast absolute error {max_abs}");
    }

    #[test]
    fn quadrant_symmetries() {
        for acc in [Accuracy::Medium, Accuracy::Fast] {
            for i in 0..256 {
                let x = i as f32 * 0.1;
                let (s, c) = sincos(x, acc);
                let (sn, cn) = sincos(-x, acc);
                assert!((s + sn).abs() < 1e-6, "sin odd symmetry at {x}");
                assert!((c - cn).abs() < 1e-6, "cos even symmetry at {x}");
            }
        }
    }

    #[test]
    fn special_values() {
        for acc in [Accuracy::High, Accuracy::Medium, Accuracy::Fast] {
            let (s, c) = sincos(0.0, acc);
            assert_eq!(s, 0.0);
            assert_eq!(c, 1.0);
            let (s, c) = sincos(std::f32::consts::FRAC_PI_2, acc);
            assert!((s - 1.0).abs() < 1e-6);
            assert!(c.abs() < 1e-6);
            let (s, c) = sincos(std::f32::consts::PI, acc);
            assert!(s.abs() < 1e-6);
            assert!((c + 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn batch_matches_scalar() {
        let xs: Vec<f32> = (0..1025).map(|i| i as f32 * 0.37 - 190.0).collect();
        let mut s = vec![0.0f32; xs.len()];
        let mut c = vec![0.0f32; xs.len()];
        for acc in [Accuracy::High, Accuracy::Medium, Accuracy::Fast] {
            sincos_batch(&xs, &mut s, &mut c, acc);
            for (i, x) in xs.iter().enumerate() {
                let (es, ec) = sincos(*x, acc);
                assert_eq!(s[i], es);
                assert_eq!(c[i], ec);
            }
        }
    }

    #[test]
    #[should_panic]
    fn batch_panics_on_short_output() {
        let xs = [0.0f32; 8];
        let mut s = [0.0f32; 4];
        let mut c = [0.0f32; 8];
        sincos_batch(&xs, &mut s, &mut c, Accuracy::Medium);
    }

    #[test]
    fn magic_rounding_matches_round_and_integer_cast() {
        // The magic-constant shift must round to nearest (ties to even)
        // and reproduce `(k as i64 & 3)` bit-for-bit for every quadrant
        // count the reductions can produce.
        for i in -200_000i64..200_000 {
            for frac in [0.0f64, 0.25, -0.375, 0.5, -0.5, 0.499_999] {
                let y = i as f64 + frac;
                let (q, k) = round_quadrant(y);
                assert_eq!(k, y.round_ties_even(), "f64 y={y}");
                assert_eq!(q, (k as i64 & 3) as u64, "f64 y={y}");
            }
        }
        for big in [1e9f64, 1e12, 2.0f64.powi(50), -(2.0f64.powi(50))] {
            let (q, k) = round_quadrant(big);
            assert_eq!(k, big);
            assert_eq!(q, (big as i64 & 3) as u64);
        }
        for i in -70_000i64..70_000 {
            for frac in [0.0f32, 0.25, -0.375, 0.5, -0.5] {
                let y = i as f32 + frac;
                let (q, k) = round_quadrant_f32(y);
                assert_eq!(k, y.round_ties_even(), "f32 y={y}");
                assert_eq!(q, (k as i64 & 3) as u64, "f32 y={y}");
            }
        }
    }

    #[test]
    fn pio2_split_is_exact_for_20_bit_quadrants() {
        // PIO2_1 carries 33 significant bits: the low 20 of its 52-bit
        // mantissa are zero, so k·PIO2_1 fits in 53 bits (exact) for
        // every |k| < 2²⁰ and the Medium reduction needs no FMA.
        assert_eq!(PIO2_1.to_bits() & ((1 << 20) - 1), 0);
        let k = f64::from((1u32 << 20) - 1);
        let product = k * PIO2_1;
        assert_eq!(product / k, PIO2_1);
        assert_eq!(product - (k - 1.0) * PIO2_1, PIO2_1);
        // the tail completes π/2 to f64 precision
        assert_eq!(PIO2_1 + PIO2_1T, std::f64::consts::FRAC_PI_2);
        assert!(PIO2_1T.abs() < 1e-10);
    }

    #[test]
    fn ulp_error_basics() {
        assert_eq!(ulp_error(1.0, 1.0), 0.0);
        assert_eq!(ulp_error(0.0, 0.0), 0.0);
        let one_ulp_up = f32::from_bits(1.0f32.to_bits() + 1);
        assert!((ulp_error(one_ulp_up, 1.0) - 1.0).abs() < 0.51);
    }

    proptest! {
        #[test]
        fn prop_pythagorean_identity(x in -1e4f32..1e4f32) {
            for acc in [Accuracy::Medium, Accuracy::Fast] {
                let (s, c) = sincos(x, acc);
                prop_assert!((s * s + c * c - 1.0).abs() < 1e-5);
            }
        }

        #[test]
        fn prop_matches_f64_reference(x in -1e4f32..1e4f32) {
            let (s, c) = sincos(x, Accuracy::Medium);
            prop_assert!(((s as f64) - (x as f64).sin()).abs() < 1e-6);
            prop_assert!(((c as f64) - (x as f64).cos()).abs() < 1e-6);
        }

        #[test]
        fn prop_periodicity(x in -100.0f32..100.0f32) {
            // Adding 2π (in f32) changes the argument slightly; compare
            // against the f64 reference of the *rounded* argument instead
            // of requiring exact equality.
            let y = x + std::f32::consts::TAU;
            let (s1, _) = sincos(y, Accuracy::Medium);
            prop_assert!(((s1 as f64) - (y as f64).sin()).abs() < 1e-6);
        }
    }
}
