//! FMA/sincos instruction-mix microkernel (paper Fig. 12).
//!
//! The paper benchmarks operation throughput for various ratios
//! ρ = #FMAs / #sincos to derive the *effective* compute ceiling of each
//! architecture: the IDG kernels perform 17 real FMAs per sincos pair
//! (ρ = 17), and on architectures that evaluate sine/cosine in software
//! (HASWELL, FIJI) the attainable Ops/s at ρ = 17 is far below the FMA
//! peak. This module is the measurable analogue: a tight loop executing
//! `ρ` FMAs per `sincos` evaluation whose runtime, combined with the
//! operation definition op ∈ {+, −, ×, sin, cos}, yields the same curve.

use crate::sincos::{sincos, Accuracy};

/// Result of one mix-kernel execution.
#[derive(Copy, Clone, Debug)]
pub struct MixResult {
    /// Total operations executed, with one FMA = 2 ops and one
    /// sincos pair = 2 ops (sin + cos), the paper's definition.
    pub total_ops: u64,
    /// FMA operations executed (counted as instructions, not ops).
    pub fmas: u64,
    /// sincos pair evaluations executed.
    pub sincos_pairs: u64,
    /// Checksum to defeat dead-code elimination.
    pub checksum: f32,
}

/// Execute `iterations` rounds of (1 sincos + `rho` FMAs) and return the
/// operation counts plus a live checksum.
///
/// The loop body mirrors the accumulation structure of Algorithm 1: the
/// sincos result feeds the FMA chain, so neither can be optimized away and
/// the dependency structure matches the real kernel.
pub fn mix_kernel(rho: u32, iterations: u64, accuracy: Accuracy) -> MixResult {
    // Four independent accumulator pairs keep the FMA pipelines busy, as
    // the four polarizations do in the real kernel.
    let mut acc = [[0.1f32, 0.2], [0.3, 0.4], [0.5, 0.6], [0.7, 0.8]];
    let mut phase = 0.123_456_7f32;

    for _ in 0..iterations {
        let (s, c) = sincos(phase, accuracy);
        phase += 0.618_034; // irrational step: exercises all quadrants
        if phase > 1e4 {
            phase -= 1e4;
        }
        // `rho` multiply-adds (the paper's FMAs, written unfused like
        // every kernel: DESIGN.md §6) round-robin over the accumulators.
        let mut k = 0u32;
        while k + 8 <= rho {
            // unrolled by 8 (2 FMAs per accumulator pair)
            acc[0][0] += s * c;
            acc[0][1] += c * s;
            acc[1][0] += s * s;
            acc[1][1] += c * c;
            acc[2][0] += s * 0.5;
            acc[2][1] += c * 0.5;
            acc[3][0] += s * -0.25;
            acc[3][1] += c * -0.25;
            k += 8;
        }
        while k < rho {
            let i = (k % 4) as usize;
            acc[i][0] += s * c;
            k += 1;
        }
        // Keep accumulators bounded so the loop cannot saturate to inf.
        if acc[0][0].abs() > 1e6 {
            for a in &mut acc {
                a[0] *= 1e-6;
                a[1] *= 1e-6;
            }
        }
    }

    let checksum = acc.iter().map(|a| a[0] + a[1]).sum::<f32>() + phase;
    let fmas = iterations * rho as u64;
    MixResult {
        total_ops: 2 * fmas + 2 * iterations,
        fmas,
        sincos_pairs: iterations,
        checksum,
    }
}

/// The ρ value of the IDG gridder/degridder kernels: 17 FMAs per sincos
/// (1 in the phase computation `f()`, 16 in the 4-polarization complex
/// accumulation), per Algorithm 1's caption.
pub const IDG_RHO: u32 = 17;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_counting_follows_paper_definition() {
        let r = mix_kernel(17, 100, Accuracy::Medium);
        assert_eq!(r.fmas, 1700);
        assert_eq!(r.sincos_pairs, 100);
        // 2 ops per FMA + 2 ops per sincos pair.
        assert_eq!(r.total_ops, 2 * 1700 + 2 * 100);
    }

    #[test]
    fn rho_zero_is_pure_sincos() {
        let r = mix_kernel(0, 50, Accuracy::Fast);
        assert_eq!(r.fmas, 0);
        assert_eq!(r.total_ops, 100);
    }

    #[test]
    fn checksum_is_finite_and_nonzero() {
        for rho in [0, 1, 3, 8, 17, 64] {
            let r = mix_kernel(rho, 10_000, Accuracy::Medium);
            assert!(r.checksum.is_finite(), "rho={rho}");
            assert!(r.checksum != 0.0, "rho={rho}");
        }
    }

    #[test]
    fn deterministic() {
        let a = mix_kernel(17, 1000, Accuracy::Medium);
        let b = mix_kernel(17, 1000, Accuracy::Medium);
        assert_eq!(a.checksum, b.checksum);
    }

    #[test]
    fn remainder_path_exercised() {
        // rho not a multiple of 8 exercises the tail loop.
        let r = mix_kernel(11, 64, Accuracy::Medium);
        assert_eq!(r.fmas, 11 * 64);
    }

    #[test]
    fn idg_rho_constant() {
        assert_eq!(IDG_RHO, 17);
    }
}
