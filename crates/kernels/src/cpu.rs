//! Optimized CPU gridder and degridder (Sec. V-B of the paper).
//!
//! The optimizations mirror the paper's, translated to Rust idiom:
//!
//! 1. **Staging / transposition** — per work item, visibilities are
//!    loaded into structure-of-arrays buffers with real and imaginary
//!    parts separated, so the reduction loops stride contiguously
//!    (the paper's "load and transpose … into memory-aligned arrays").
//! 2. **Batched phasors** — all `T̃·C̃` phases of a pixel are computed
//!    first, then evaluated with one `sincos_batch` call (`idg-math`'s
//!    SVML/VML analogue, medium accuracy).
//! 3. **Vectorized reductions** — the gridder reduces over channels
//!    (Listing 1: 16 FMAs per iteration across 8 accumulators), the
//!    degridder over pixels; both loops are written as straight-line
//!    multiply-adds over slices so LLVM emits packed vector code. They
//!    are unfused (`a * b + c`), so the output bits do not depend on
//!    whether the build has compile-time FMA (DESIGN.md §6).
//! 4. **Thread-level parallelism** — work items are distributed over
//!    cores with rayon (the OpenMP `parallel for` analogue). Gridder
//!    threads own disjoint subgrids; degridder threads own disjoint
//!    visibility blocks, reassembled after the parallel section.

use crate::buffers::SubgridArray;
use crate::cache::{GeometryKey, KernelCache};
use crate::geometry::KernelGeometry;
use crate::KernelData;
use idg_math::{sincos_batch, Accuracy};
use idg_obs::{KernelCounters, KernelStage};
use idg_plan::WorkItem;
use idg_types::{Float, IdgError, Jones, Visibility};
use rayon::prelude::*;

/// Bytes of one 4-pol complex-f32 quantity (visibility or pixel).
const BYTES_POL4: u64 = 32;
/// Bytes of one staged uvw coordinate (3 × f32).
const BYTES_UVW: u64 = 12;

/// Per-worker scratch buffers, reused across work items.
struct Scratch {
    /// Phases, then sin/cos planes, each `max(T̃·C̃, Ñ²)` long.
    phases: Vec<f32>,
    /// Per-channel phase staging of the degridder.
    chan_phases: Vec<f32>,
    sin: Vec<f32>,
    cos: Vec<f32>,
    /// SoA staging: 4 pols × re/im.
    re: [Vec<f32>; 4],
    im: [Vec<f32>; 4],
    /// Per-item phase offsets φ₀ (the only geometry plane that varies
    /// per item — l/m/n come shared from the [`KernelCache`]).
    d: Vec<f32>,
    /// Gridder pixel accumulators, persisted across visibility batches.
    pix: Vec<[(f32, f32); 4]>,
}

impl Scratch {
    fn new() -> Self {
        Self {
            phases: Vec::new(),
            chan_phases: Vec::new(),
            sin: Vec::new(),
            cos: Vec::new(),
            re: [Vec::new(), Vec::new(), Vec::new(), Vec::new()],
            im: [Vec::new(), Vec::new(), Vec::new(), Vec::new()],
            d: Vec::new(),
            pix: Vec::new(),
        }
    }

    fn resize(&mut self, len: usize) {
        self.phases.resize(len, 0.0);
        self.chan_phases.resize(len, 0.0);
        self.sin.resize(len, 0.0);
        self.cos.resize(len, 0.0);
        for p in 0..4 {
            self.re[p].resize(len, 0.0);
            self.im[p].resize(len, 0.0);
        }
        self.d.resize(len, 0.0);
        self.pix.resize(len, [(0.0, 0.0); 4]);
    }
}

/// Visibility-batch size (elements of T̃·C̃) staged per sincos/reduction
/// round — the `T_B × C_B` platform parameter of Sec. V-B: large enough
/// to amortize call overheads, small enough that the 11 staging arrays
/// (phases, sin, cos, 8 SoA planes) stay L1-resident.
const VIS_BATCH: usize = 512;

/// [`reduce_4pol`] over `soa[offset..offset+len]` paired with
/// `sin/cos[..len]` (the trig planes are batch-local, the visibility SoA
/// planes are item-global).
#[inline]
fn reduce_4pol_offset(
    sin: &[f32],
    cos: &[f32],
    re: &[Vec<f32>; 4],
    im: &[Vec<f32>; 4],
    offset: usize,
    len: usize,
) -> [(f32, f32); 4] {
    let re_slices = [
        &re[0][offset..],
        &re[1][offset..],
        &re[2][offset..],
        &re[3][offset..],
    ];
    let im_slices = [
        &im[0][offset..],
        &im[1][offset..],
        &im[2][offset..],
        &im[3][offset..],
    ];
    reduce_4pol_slices(sin, cos, &re_slices, &im_slices, len)
}

/// The channel-reduction of Listing 1, generalized to reduce over any
/// contiguous index range: 16 multiply-adds (the paper's FMAs) per
/// element across 8 accumulators.
///
/// Strict-FP reductions cannot be auto-vectorized (the compiler may not
/// reassociate float adds), so the accumulators are split into `LANES`
/// independent partial sums — each maps onto one SIMD lane and the loop
/// compiles to packed multiplies and adds, the effect of Listing 1\'s
/// `#pragma omp simd reduction`.
#[inline]
fn reduce_4pol(
    sin: &[f32],
    cos: &[f32],
    re: &[Vec<f32>; 4],
    im: &[Vec<f32>; 4],
    len: usize,
) -> [(f32, f32); 4] {
    let re_slices = [
        re[0].as_slice(),
        re[1].as_slice(),
        re[2].as_slice(),
        re[3].as_slice(),
    ];
    let im_slices = [
        im[0].as_slice(),
        im[1].as_slice(),
        im[2].as_slice(),
        im[3].as_slice(),
    ];
    reduce_4pol_slices(sin, cos, &re_slices, &im_slices, len)
}

#[inline]
fn reduce_4pol_slices(
    sin: &[f32],
    cos: &[f32],
    re: &[&[f32]; 4],
    im: &[&[f32]; 4],
    len: usize,
) -> [(f32, f32); 4] {
    const LANES: usize = 16;
    let mut acc = [(0.0f32, 0.0f32); 4];
    let full = len - len % LANES;

    for p in 0..4 {
        let (vr, vi) = (&re[p][..len], &im[p][..len]);
        let (s, c) = (&sin[..len], &cos[..len]);

        let mut ar = [0.0f32; LANES];
        let mut ai = [0.0f32; LANES];
        // chunks_exact (rather than a manually indexed `while`) lets LLVM
        // prove the accumulator arrays never alias the inputs, so they live
        // in vector registers across the whole loop instead of round-tripping
        // through the stack every iteration (~7× on this reduction).
        for (((vr_c, vi_c), s_c), c_c) in vr[..full]
            .chunks_exact(LANES)
            .zip(vi[..full].chunks_exact(LANES))
            .zip(s[..full].chunks_exact(LANES))
            .zip(c[..full].chunks_exact(LANES))
        {
            for lane in 0..LANES {
                // pixel += vis * (cos + i*sin):
                ar[lane] += vr_c[lane] * c_c[lane];
                ar[lane] -= vi_c[lane] * s_c[lane];
                ai[lane] += vr_c[lane] * s_c[lane];
                ai[lane] += vi_c[lane] * c_c[lane];
            }
        }
        let mut ar_sum: f32 = ar.iter().sum();
        let mut ai_sum: f32 = ai.iter().sum();
        for k in full..len {
            ar_sum += vr[k] * c[k];
            ar_sum -= vi[k] * s[k];
            ai_sum += vr[k] * s[k];
            ai_sum += vi[k] * c[k];
        }
        acc[p] = (ar_sum, ai_sum);
    }
    acc
}

/// Optimized gridder: Algorithm 1 over all work items, parallelized with
/// rayon; numerically validated against [`crate::gridder_reference`].
pub fn gridder_cpu(
    data: &KernelData<'_>,
    items: &[WorkItem],
    subgrids: &mut SubgridArray,
    accuracy: Accuracy,
    cache: &KernelCache,
) -> Result<(), IdgError> {
    crate::check_launch(data, items, subgrids)?;

    let geom = KernelGeometry::new(data.obs);
    let n = geom.subgrid_size;
    let n2 = n * n;
    // Shared per-pixel direction cosines: one lookup per pass, every
    // work item reuses the same planes.
    let planes = cache.geometry(GeometryKey::new(n, geom.image_size));
    let nr_time = data.obs.nr_timesteps;
    let nr_chan = data.obs.nr_channels();
    // per-channel phase scale 2π·ν/c as f32 (phases stay < ~10⁴ rad)
    let scales: Vec<f32> = data
        .obs
        .frequencies
        .iter()
        .map(|f| f32::from_f64(KernelGeometry::phase_scale(*f)))
        .collect();

    // one scan of every Jones matrix per pass, not per work item
    let identity_aterms = data.aterms.is_identity();

    // each worker records into this pass's observability session
    let scratch = idg_obs::entering(Scratch::new);
    items
        .par_iter()
        .zip(subgrids.as_mut_slice().par_chunks_exact_mut(4 * n2))
        .for_each_init(scratch, |scr, (item, subgrid)| {
            let item_chan = item.nr_channels;
            let tc = item.nr_timesteps * item_chan;
            scr.resize(tc.max(n2));

            // Measured op tally, incremented beside the staging loops
            // and batched-math call sites with their actual lengths;
            // flushed once per item (no-op without an active session).
            let mut tally = KernelCounters {
                invocations: 1,
                ..KernelCounters::default()
            };

            // stage this item's channel group (SoA, re/im separated)
            let base = item.baseline_index * nr_time + item.time_offset;
            for dt in 0..item.nr_timesteps {
                let row_start = (base + dt) * nr_chan + item.channel_offset;
                let row = &data.visibilities[row_start..row_start + item_chan];
                for (ci, v) in row.iter().enumerate() {
                    let k = dt * item_chan + ci;
                    for p in 0..4 {
                        scr.re[p][k] = v.pols[p].re;
                        scr.im[p][k] = v.pols[p].im;
                    }
                }
                tally.visibilities += row.len() as u64;
                tally.dram_bytes += row.len() as u64 * BYTES_POL4 + BYTES_UVW;
            }

            let (u0, v0, w0) = geom.subgrid_center_uvw(item);
            let uvw = &data.uvw[base..base + item.nr_timesteps];
            let ap_plane = data.aterms.plane(item.aterm_index, item.baseline.station1);
            let aq_plane = data.aterms.plane(item.aterm_index, item.baseline.station2);
            // both station planes are fetched even when identity
            tally.dram_bytes += (ap_plane.len() + aq_plane.len()) as u64 * BYTES_POL4;

            // Per-pixel phase offset φ₀ — the only geometry term that
            // depends on the item; l/m/n come from the cached planes.
            for i in 0..n2 {
                scr.d[i] = f32::from_f64(
                    2.0 * std::f64::consts::PI
                        * (u0 * planes.l[i] + v0 * planes.m[i] + w0 * planes.n_term[i]),
                );
            }

            // Batch-outer / pixel-inner, the paper\'s Sec. V-B
            // optimization 1 (T_B × C_B batching): one batch\'s SoA
            // planes (≤ VIS_BATCH elements) and the trig staging stay
            // L1-resident while *every* pixel consumes them; the pixel
            // accumulators persist across batches like the GPU kernel\'s
            // registers.
            scr.pix[..n2].fill([(0.0, 0.0); 4]);
            let batch_t = (VIS_BATCH / item_chan).max(1);
            let mut t0 = 0usize;
            while t0 < item.nr_timesteps {
                let t1 = (t0 + batch_t).min(item.nr_timesteps);
                let len = (t1 - t0) * item_chan;
                let off = t0 * item_chan;

                for (i, acc) in scr.pix[..n2].iter_mut().enumerate() {
                    let (lf, mf, nf, phase_offset) =
                        (planes.lf[i], planes.mf[i], planes.nf[i], scr.d[i]);
                    for (bt, uvw_m) in uvw[t0..t1].iter().enumerate() {
                        let phase_index = uvw_m.u * lf + (uvw_m.v * mf + uvw_m.w * nf);
                        let row = &mut scr.phases[bt * item_chan..(bt + 1) * item_chan];
                        for (ci, ph) in row.iter_mut().enumerate() {
                            *ph = scales[item.channel_offset + ci] * phase_index - phase_offset;
                        }
                    }
                    // one batched sincos call per (pixel, batch) — the
                    // SVML analogue
                    sincos_batch(&scr.phases[..len], &mut scr.sin, &mut scr.cos, accuracy);
                    tally.sincos_pairs += len as u64;
                    tally.fmas += len as u64; // phase multiply-add per element

                    // Listing 1: vectorized 4-pol reduction over the batch
                    let partial =
                        reduce_4pol_offset(&scr.sin, &scr.cos, &scr.re, &scr.im, off, len);
                    tally.fmas += 16 * len as u64; // 4 pols × 4 multiply-adds
                    tally.shared_bytes += len as u64 * (BYTES_POL4 + BYTES_UVW);
                    for p in 0..4 {
                        acc[p].0 += partial[p].0;
                        acc[p].1 += partial[p].1;
                    }
                }
                t0 = t1;
            }

            // Epilogue: A-term (adjoint) + taper, then store.
            for y in 0..n {
                for x in 0..n {
                    let i = y * n + x;
                    let acc = scr.pix[i];
                    let taper = data.taper[i];
                    let store = |subgrid: &mut [idg_types::Cf32], vals: [(f32, f32); 4]| {
                        for (p, (vr, vi)) in vals.into_iter().enumerate() {
                            subgrid[(p * n + y) * n + x] =
                                idg_types::Cf32::new(vr * taper, vi * taper);
                        }
                    };
                    if identity_aterms {
                        store(subgrid, acc);
                    } else {
                        let pix = Jones::from_pols([
                            idg_types::Cf32::new(acc[0].0, acc[0].1),
                            idg_types::Cf32::new(acc[1].0, acc[1].1),
                            idg_types::Cf32::new(acc[2].0, acc[2].1),
                            idg_types::Cf32::new(acc[3].0, acc[3].1),
                        ]);
                        let ap = ap_plane[i];
                        let aq = aq_plane[i];
                        let corrected = ap.hermitian().mul(pix).mul(aq).to_pols();
                        store(
                            subgrid,
                            [
                                (corrected[0].re, corrected[0].im),
                                (corrected[1].re, corrected[1].im),
                                (corrected[2].re, corrected[2].im),
                                (corrected[3].re, corrected[3].im),
                            ],
                        );
                    }
                    tally.dram_bytes += BYTES_POL4; // output pixel written once
                }
            }
            idg_obs::add_kernel(KernelStage::Gridder, &tally);
        });
    Ok(())
}

/// Optimized degridder: Algorithm 2 over all work items.
///
/// Parallel over work items; `vis_out` is pre-partitioned into disjoint
/// per-timestep rows (the plan never assigns one visibility to two
/// items), so each worker predicts straight into its own slices — no
/// per-item staging allocation, no sequential scatter afterwards.
pub fn degridder_cpu(
    data: &KernelData<'_>,
    items: &[WorkItem],
    subgrids: &SubgridArray,
    vis_out: &mut [Visibility<f32>],
    accuracy: Accuracy,
    cache: &KernelCache,
) -> Result<(), IdgError> {
    crate::check_launch(data, items, subgrids)?;
    if vis_out.len() != data.obs.nr_visibilities() {
        return Err(IdgError::ShapeMismatch {
            what: "visibility output buffer",
            expected: data.obs.nr_visibilities(),
            actual: vis_out.len(),
        });
    }

    let geom = KernelGeometry::new(data.obs);
    let n = geom.subgrid_size;
    let n2 = n * n;
    let nr_time = data.obs.nr_timesteps;
    let nr_chan = data.obs.nr_channels();
    let planes = cache.geometry(GeometryKey::new(n, geom.image_size));
    let scales: Vec<f32> = data
        .obs
        .frequencies
        .iter()
        .map(|f| f32::from_f64(KernelGeometry::phase_scale(*f)))
        .collect();

    // Carve vis_out into one mutable row slice per (item, timestep),
    // bundled per item. Rows are sorted by destination offset so the
    // buffer can be split left-to-right with `split_at_mut`; a malformed
    // (overlapping) plan underflows `dst - cursor` and panics, the same
    // failure mode the old overlapping-scatter copy had.
    let mut row_order: Vec<(usize, usize)> = Vec::new();
    for (idx, item) in items.iter().enumerate() {
        let base = item.baseline_index * nr_time + item.time_offset;
        for dt in 0..item.nr_timesteps {
            row_order.push(((base + dt) * nr_chan + item.channel_offset, idx));
        }
    }
    row_order.sort_unstable();
    let mut bundles: Vec<Vec<&mut [Visibility<f32>]>> = items
        .iter()
        .map(|item| Vec::with_capacity(item.nr_timesteps))
        .collect();
    let mut rest = vis_out;
    let mut cursor = 0usize;
    for (dst, idx) in row_order {
        let (_, tail) = std::mem::take(&mut rest).split_at_mut(dst - cursor);
        let (row, tail) = tail.split_at_mut(items[idx].nr_channels);
        bundles[idx].push(row);
        rest = tail;
        cursor = dst + items[idx].nr_channels;
    }

    let scratch = idg_obs::entering(Scratch::new);
    items
        .par_iter()
        .enumerate()
        .zip(bundles.into_par_iter())
        .for_each_init(scratch, |scr, ((s_idx, item), mut rows)| {
            scr.resize(n2);
            let subgrid = subgrids.subgrid(s_idx);
            let ap_plane = data.aterms.plane(item.aterm_index, item.baseline.station1);
            let aq_plane = data.aterms.plane(item.aterm_index, item.baseline.station2);
            let (u0, v0, w0) = geom.subgrid_center_uvw(item);

            // Measured op tally (see gridder_cpu): the staging pass
            // reads the subgrid and both A-term planes once.
            let mut tally = KernelCounters {
                invocations: 1,
                dram_bytes: (n2 + ap_plane.len() + aq_plane.len()) as u64 * BYTES_POL4,
                ..KernelCounters::default()
            };

            // Lines 2–3 of Algorithm 2: forward A-term sandwich + taper,
            // staged SoA, together with per-pixel geometry (l, m, n, φ₀).
            for y in 0..n {
                for x in 0..n {
                    let i = y * n + x;
                    scr.d[i] = f32::from_f64(
                        2.0 * std::f64::consts::PI
                            * (u0 * planes.l[i] + v0 * planes.m[i] + w0 * planes.n_term[i]),
                    );

                    let raw = Jones::from_pols([
                        subgrid[(y) * n + x],
                        subgrid[(n + y) * n + x],
                        subgrid[(2 * n + y) * n + x],
                        subgrid[(3 * n + y) * n + x],
                    ]);
                    let taper = data.taper[i];
                    let px = ap_plane[i]
                        .sandwich(raw, aq_plane[i])
                        .scale(taper)
                        .to_pols();
                    for p in 0..4 {
                        scr.re[p][i] = px[p].re;
                        scr.im[p][i] = px[p].im;
                    }
                }
            }

            let base = item.baseline_index * nr_time + item.time_offset;
            let uvw = &data.uvw[base..base + item.nr_timesteps];
            let item_chan = item.nr_channels;

            for (dt, uvw_m) in uvw.iter().enumerate() {
                tally.dram_bytes += BYTES_UVW;
                // per-pixel meter-valued phase index (3 FMAs each)
                for i in 0..n2 {
                    scr.phases[i] =
                        uvw_m.u * planes.lf[i] + (uvw_m.v * planes.mf[i] + uvw_m.w * planes.nf[i]);
                }
                let out_row = &mut rows[dt];
                for ci in 0..item_chan {
                    // degridding phase = −(scale·index − offset)
                    let scale = scales[item.channel_offset + ci];
                    for i in 0..n2 {
                        scr.chan_phases[i] = scr.d[i] - scale * scr.phases[i];
                    }
                    sincos_batch(&scr.chan_phases[..n2], &mut scr.sin, &mut scr.cos, accuracy);
                    tally.sincos_pairs += n2 as u64;
                    tally.fmas += n2 as u64; // phase multiply-add per pixel
                    let acc = reduce_4pol(&scr.sin, &scr.cos, &scr.re, &scr.im, n2);
                    // 4 pols × 4 multiply-adds, then staged pixel + geometry +
                    // accumulator traffic
                    tally.fmas += 16 * n2 as u64;
                    tally.shared_bytes += n2 as u64 * (BYTES_POL4 + 16 + BYTES_UVW);
                    tally.visibilities += 1;
                    tally.dram_bytes += BYTES_POL4; // predicted vis written once
                    out_row[ci] = Visibility {
                        pols: [
                            idg_types::Cf32::new(acc[0].0, acc[0].1),
                            idg_types::Cf32::new(acc[1].0, acc[1].1),
                            idg_types::Cf32::new(acc[2].0, acc[2].1),
                            idg_types::Cf32::new(acc[3].0, acc[3].1),
                        ],
                    };
                }
            }
            idg_obs::add_kernel(KernelStage::Degridder, &tally);
        });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{degridder_reference, gridder_reference};
    use idg_plan::Plan;
    use idg_telescope::{Dataset, GaussianBeam, IdentityATerm, Layout, SkyModel};
    use idg_types::Observation;

    fn dataset(aterm_kind: u8) -> Dataset {
        let obs = Observation::builder()
            .stations(6)
            .timesteps(24)
            .channels(5, 150e6, 2e6) // odd channel count: exercises remainders
            .grid_size(256)
            .subgrid_size(16)
            .kernel_size(5)
            .aterm_interval(8)
            .image_size(0.05)
            .build()
            .unwrap();
        let layout = Layout::uniform(6, 900.0, 17);
        let sky = SkyModel::random(&obs, 5, 0.6, 23);
        match aterm_kind {
            0 => Dataset::simulate(obs, &layout, sky, &IdentityATerm),
            _ => {
                let beam = GaussianBeam::new(&obs, 0.8, 31);
                Dataset::simulate(obs, &layout, sky, &beam)
            }
        }
    }

    fn taper(n: usize) -> Vec<f32> {
        idg_math::spheroidal_2d(n)
    }

    fn assert_subgrids_close(a: &SubgridArray, b: &SubgridArray, tol: f32) {
        let scale = b.as_slice().iter().map(|c| c.abs()).fold(1.0f32, f32::max);
        for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
            assert!(
                (*x - *y).abs() / scale < tol,
                "pixel {i}: {x} vs {y} (scale {scale})"
            );
        }
    }

    #[test]
    fn gridder_matches_reference_identity_aterms() {
        let ds = dataset(0);
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        let tp = taper(ds.obs.subgrid_size);
        let data = KernelData {
            obs: &ds.obs,
            uvw: &ds.uvw,
            visibilities: &ds.visibilities,
            aterms: &ds.aterms,
            taper: &tp,
        };
        let mut fast = SubgridArray::new(plan.nr_subgrids(), ds.obs.subgrid_size);
        let mut gold = SubgridArray::new(plan.nr_subgrids(), ds.obs.subgrid_size);
        gridder_cpu(
            &data,
            &plan.items,
            &mut fast,
            Accuracy::Medium,
            &KernelCache::new(),
        )
        .expect("kernel run");
        gridder_reference(&data, &plan.items, &mut gold).expect("kernel run");
        assert_subgrids_close(&fast, &gold, 2e-4);
    }

    #[test]
    fn gridder_matches_reference_beam_aterms() {
        let ds = dataset(1);
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        let tp = taper(ds.obs.subgrid_size);
        let data = KernelData {
            obs: &ds.obs,
            uvw: &ds.uvw,
            visibilities: &ds.visibilities,
            aterms: &ds.aterms,
            taper: &tp,
        };
        let mut fast = SubgridArray::new(plan.nr_subgrids(), ds.obs.subgrid_size);
        let mut gold = SubgridArray::new(plan.nr_subgrids(), ds.obs.subgrid_size);
        gridder_cpu(
            &data,
            &plan.items,
            &mut fast,
            Accuracy::Medium,
            &KernelCache::new(),
        )
        .expect("kernel run");
        gridder_reference(&data, &plan.items, &mut gold).expect("kernel run");
        assert_subgrids_close(&fast, &gold, 2e-4);
    }

    #[test]
    fn degridder_matches_reference() {
        let ds = dataset(1);
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        let tp = taper(ds.obs.subgrid_size);
        let data = KernelData {
            obs: &ds.obs,
            uvw: &ds.uvw,
            visibilities: &ds.visibilities,
            aterms: &ds.aterms,
            taper: &tp,
        };
        // grid something non-trivial first, then degrid it both ways
        let mut subgrids = SubgridArray::new(plan.nr_subgrids(), ds.obs.subgrid_size);
        gridder_reference(&data, &plan.items, &mut subgrids).expect("kernel run");

        let mut fast = vec![Visibility::<f32>::zero(); ds.obs.nr_visibilities()];
        let mut gold = vec![Visibility::<f32>::zero(); ds.obs.nr_visibilities()];
        degridder_cpu(
            &data,
            &plan.items,
            &subgrids,
            &mut fast,
            Accuracy::Medium,
            &KernelCache::new(),
        )
        .expect("kernel run");
        degridder_reference(&data, &plan.items, &subgrids, &mut gold).expect("kernel run");

        let scale = gold
            .iter()
            .flat_map(|v| v.pols.iter())
            .map(|c| c.abs())
            .fold(1.0f32, f32::max);
        for (i, (a, b)) in fast.iter().zip(&gold).enumerate() {
            for p in 0..4 {
                assert!(
                    (a.pols[p] - b.pols[p]).abs() / scale < 3e-4,
                    "vis {i} pol {p}: {} vs {}",
                    a.pols[p],
                    b.pols[p]
                );
            }
        }
    }

    #[test]
    fn fast_accuracy_stays_close_to_medium() {
        let ds = dataset(0);
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        let tp = taper(ds.obs.subgrid_size);
        let data = KernelData {
            obs: &ds.obs,
            uvw: &ds.uvw,
            visibilities: &ds.visibilities,
            aterms: &ds.aterms,
            taper: &tp,
        };
        let mut med = SubgridArray::new(plan.nr_subgrids(), ds.obs.subgrid_size);
        let mut fast = SubgridArray::new(plan.nr_subgrids(), ds.obs.subgrid_size);
        gridder_cpu(
            &data,
            &plan.items,
            &mut med,
            Accuracy::Medium,
            &KernelCache::new(),
        )
        .expect("kernel run");
        gridder_cpu(
            &data,
            &plan.items,
            &mut fast,
            Accuracy::Fast,
            &KernelCache::new(),
        )
        .expect("kernel run");
        assert_subgrids_close(&fast, &med, 1e-3);
    }

    #[test]
    fn parallel_execution_is_deterministic() {
        let ds = dataset(0);
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        let tp = taper(ds.obs.subgrid_size);
        let data = KernelData {
            obs: &ds.obs,
            uvw: &ds.uvw,
            visibilities: &ds.visibilities,
            aterms: &ds.aterms,
            taper: &tp,
        };
        let mut a = SubgridArray::new(plan.nr_subgrids(), ds.obs.subgrid_size);
        let mut b = SubgridArray::new(plan.nr_subgrids(), ds.obs.subgrid_size);
        gridder_cpu(
            &data,
            &plan.items,
            &mut a,
            Accuracy::Medium,
            &KernelCache::new(),
        )
        .expect("kernel run");
        gridder_cpu(
            &data,
            &plan.items,
            &mut b,
            Accuracy::Medium,
            &KernelCache::new(),
        )
        .expect("kernel run");
        assert_eq!(
            a.as_slice(),
            b.as_slice(),
            "per-item accumulation order is fixed"
        );
    }

    /// Both tail-handling regimes of the optimized kernels against the
    /// reference on the same plan.
    fn assert_tail_conformance(ds: &Dataset) {
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        let tp = taper(ds.obs.subgrid_size);
        let data = KernelData {
            obs: &ds.obs,
            uvw: &ds.uvw,
            visibilities: &ds.visibilities,
            aterms: &ds.aterms,
            taper: &tp,
        };
        let mut fast = SubgridArray::new(plan.nr_subgrids(), ds.obs.subgrid_size);
        let mut gold = SubgridArray::new(plan.nr_subgrids(), ds.obs.subgrid_size);
        gridder_cpu(
            &data,
            &plan.items,
            &mut fast,
            Accuracy::Medium,
            &KernelCache::new(),
        )
        .expect("kernel run");
        gridder_reference(&data, &plan.items, &mut gold).expect("kernel run");
        assert_subgrids_close(&fast, &gold, 2e-4);

        let mut vfast = vec![Visibility::<f32>::zero(); ds.obs.nr_visibilities()];
        let mut vgold = vec![Visibility::<f32>::zero(); ds.obs.nr_visibilities()];
        degridder_cpu(
            &data,
            &plan.items,
            &gold,
            &mut vfast,
            Accuracy::Medium,
            &KernelCache::new(),
        )
        .expect("kernel run");
        degridder_reference(&data, &plan.items, &gold, &mut vgold).expect("kernel run");
        let scale = vgold
            .iter()
            .flat_map(|v| v.pols.iter())
            .map(|c| c.abs())
            .fold(1.0f32, f32::max);
        for (i, (a, b)) in vfast.iter().zip(&vgold).enumerate() {
            for p in 0..4 {
                assert!(
                    (a.pols[p] - b.pols[p]).abs() / scale < 3e-4,
                    "vis {i} pol {p}: {} vs {}",
                    a.pols[p],
                    b.pols[p]
                );
            }
        }
    }

    #[test]
    fn tails_shorter_than_a_simd_lane_match_reference() {
        // 5 timesteps × 3 channels = 15 visibilities per work item:
        // smaller than LANES (16), so the FMA reduction runs entirely
        // in its scalar tail loop, and far below VIS_BATCH, so the
        // batched-sincos path sees a single partial batch.
        let obs = Observation::builder()
            .stations(3)
            .timesteps(5)
            .channels(3, 150e6, 2e6)
            .grid_size(128)
            .subgrid_size(16)
            .kernel_size(5)
            .aterm_interval(5)
            .image_size(0.04)
            .build()
            .unwrap();
        assert!(obs.aterm_interval * obs.nr_channels() < 16);
        let layout = Layout::uniform(3, 700.0, 53);
        let sky = SkyModel::random(&obs, 3, 0.5, 59);
        let beam = GaussianBeam::new(&obs, 0.8, 61);
        assert_tail_conformance(&Dataset::simulate(obs, &layout, sky, &beam));
    }

    #[test]
    fn items_straddling_vis_batch_match_reference() {
        // 120 timesteps × 5 channels = 600 visibilities per work item:
        // the batch loop runs one full VIS_BATCH chunk (102 timesteps ×
        // 5 channels = 510) plus a ragged 18-timestep remainder, and
        // 600 % LANES = 8 leaves a sub-lane tail in every reduction.
        let obs = Observation::builder()
            .stations(3)
            .timesteps(120)
            .channels(5, 150e6, 2e6)
            .grid_size(256)
            .subgrid_size(20)
            .kernel_size(7)
            .aterm_interval(120)
            .image_size(0.05)
            .build()
            .unwrap();
        let vis_per_item = obs.aterm_interval * obs.nr_channels();
        assert!(vis_per_item > VIS_BATCH && !vis_per_item.is_multiple_of(VIS_BATCH));
        assert!(!vis_per_item.is_multiple_of(16));
        let layout = Layout::uniform(3, 900.0, 67);
        let sky = SkyModel::random(&obs, 4, 0.6, 71);
        assert_tail_conformance(&Dataset::simulate(obs, &layout, sky, &IdentityATerm));
    }
}
