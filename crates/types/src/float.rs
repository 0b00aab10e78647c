//! Minimal floating-point abstraction.
//!
//! The workspace avoids external numeric crates so the operation inventory
//! stays auditable. [`Float`] is the small surface the generic algorithms
//! (FFT, complex arithmetic, tapers) actually need, implemented for `f32`
//! and `f64`.

/// Operations required from a real scalar type by the IDG kernels.
///
/// All methods mirror the inherent methods on `f32`/`f64`. There is no
/// `mul_add`: multiply-adds are written `a * b + c` so the bits do not
/// depend on whether the build has compile-time FMA (DESIGN.md §6).
pub trait Float:
    Copy
    + Clone
    + std::fmt::Debug
    + std::fmt::Display
    + PartialEq
    + PartialOrd
    + std::ops::Add<Output = Self>
    + std::ops::Sub<Output = Self>
    + std::ops::Mul<Output = Self>
    + std::ops::Div<Output = Self>
    + std::ops::Neg<Output = Self>
    + std::ops::AddAssign
    + std::ops::SubAssign
    + std::ops::MulAssign
    + Send
    + Sync
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// One half.
    const HALF: Self;
    /// Two.
    const TWO: Self;
    /// Archimedes' constant.
    const PI: Self;
    /// 2π, the phase period.
    const TAU: Self;

    /// Lossy conversion from `f64`.
    fn from_f64(v: f64) -> Self;
    /// Lossy conversion from `usize`.
    fn from_usize(v: usize) -> Self;
    /// Widening conversion to `f64`.
    fn to_f64(self) -> f64;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Sine (libm reference, *not* the batched fast path — see `idg-math`).
    fn sin(self) -> Self;
    /// Cosine (libm reference).
    fn cos(self) -> Self;
    /// Simultaneous sine and cosine.
    fn sin_cos(self) -> (Self, Self);
    /// Absolute value.
    fn abs(self) -> Self;
    /// Floor.
    fn floor(self) -> Self;
    /// Round to nearest.
    fn round(self) -> Self;
    /// Exponential.
    fn exp(self) -> Self;
    /// Largest of two values.
    fn max(self, other: Self) -> Self;
    /// Smallest of two values.
    fn min(self, other: Self) -> Self;
    /// True if the value is finite.
    fn is_finite(self) -> bool;
}

macro_rules! impl_float {
    ($t:ty, $pi:expr, $tau:expr) => {
        impl Float for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
            const HALF: Self = 0.5;
            const TWO: Self = 2.0;
            const PI: Self = $pi;
            const TAU: Self = $tau;

            #[inline(always)]
            fn from_f64(v: f64) -> Self {
                v as $t
            }
            #[inline(always)]
            fn from_usize(v: usize) -> Self {
                v as $t
            }
            #[inline(always)]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline(always)]
            fn sqrt(self) -> Self {
                self.sqrt()
            }
            #[inline(always)]
            fn sin(self) -> Self {
                self.sin()
            }
            #[inline(always)]
            fn cos(self) -> Self {
                self.cos()
            }
            #[inline(always)]
            fn sin_cos(self) -> (Self, Self) {
                self.sin_cos()
            }
            #[inline(always)]
            fn abs(self) -> Self {
                self.abs()
            }
            #[inline(always)]
            fn floor(self) -> Self {
                self.floor()
            }
            #[inline(always)]
            fn round(self) -> Self {
                self.round()
            }
            #[inline(always)]
            fn exp(self) -> Self {
                self.exp()
            }
            #[inline(always)]
            fn max(self, other: Self) -> Self {
                self.max(other)
            }
            #[inline(always)]
            fn min(self, other: Self) -> Self {
                self.min(other)
            }
            #[inline(always)]
            fn is_finite(self) -> bool {
                self.is_finite()
            }
        }
    };
}

impl_float!(f32, std::f32::consts::PI, std::f32::consts::TAU);
impl_float!(f64, std::f64::consts::PI, std::f64::consts::TAU);

#[cfg(test)]
mod tests {
    use super::*;

    fn generic_sum<T: Float>(n: usize) -> T {
        let mut acc = T::ZERO;
        for i in 0..n {
            acc += T::from_usize(i);
        }
        acc
    }

    #[test]
    fn constants_are_consistent() {
        assert_eq!(f32::TAU, 2.0 * f32::PI);
        assert_eq!(f64::TAU, 2.0 * f64::PI);
        assert_eq!(f32::HALF + f32::HALF, f32::ONE);
    }

    #[test]
    fn generic_arithmetic_matches_native() {
        assert_eq!(generic_sum::<f32>(10), 45.0);
        assert_eq!(generic_sum::<f64>(10), 45.0);
    }

    #[test]
    fn sin_cos_pythagorean_identity() {
        for i in 0..100 {
            let x = (i as f64) * 0.37 - 18.0;
            let (s, c) = Float::sin_cos(x);
            assert!((s * s + c * c - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn conversions_round_trip() {
        assert_eq!(f32::from_f64(2.5).to_f64(), 2.5);
        assert_eq!(f64::from_usize(7), 7.0);
    }
}
