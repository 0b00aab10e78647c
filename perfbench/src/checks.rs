//! Output checks. Every op's output is checked; an op whose call
//! returns `Err` or whose output fails a check counts as failed.

use crate::ops::{CycleOutput, Passes};
use idg::{Backend, Cf32, Grid, Visibility};
use idg_conformance::{StageBudget, StageError};
use std::cmp::Ordering;

/// What each op's passes must reproduce: the one-shot grid and vis of
/// the same inputs, computed once per run outside the timing, and the
/// `CpuReference` grid and vis of those inputs.
pub struct Expected {
    pub grid: Grid<f32>,
    pub vis: Vec<Visibility<f32>>,
    pub ref_grid: Grid<f32>,
    pub ref_vis: Vec<Visibility<f32>>,
}

fn same_bits(a: &[Cf32], b: &[Cf32]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
}

fn flat(vis: &[Visibility<f32>]) -> Vec<Cf32> {
    vis.iter().flat_map(|v| v.pols).collect()
}

/// Bit identity with the one-shot outputs.
pub fn identical(grid: &Grid<f32>, vis: &[Visibility<f32>], exp: &Expected) -> Result<(), String> {
    if !same_bits(grid.as_slice(), exp.grid.as_slice()) {
        return Err("grid is not bit-identical to the one-shot grid".into());
    }
    if !same_bits(&flat(vis), &flat(&exp.vis)) {
        return Err("vis are not bit-identical to the one-shot vis".into());
    }
    Ok(())
}

/// Relative errors of (grid, vis) against the `CpuReference` outputs.
pub fn reference_errors(
    grid: &Grid<f32>,
    vis: &[Visibility<f32>],
    exp: &Expected,
) -> (StageError, StageError) {
    (
        StageError::between(grid.as_slice(), exp.ref_grid.as_slice()),
        StageError::between_visibilities(vis, &exp.ref_vis),
    )
}

/// The conformance budget of the optimized CPU back-end.
pub fn within_budget(
    grid: &Grid<f32>,
    vis: &[Visibility<f32>],
    exp: &Expected,
) -> Result<(), String> {
    let budget = StageBudget::for_backend(Backend::CpuOptimized);
    let (g, v) = reference_errors(grid, vis, exp);
    if !budget.admits(g) {
        return Err(format!(
            "grid outside budget: rms {:e} max {:e}",
            g.rms, g.max
        ));
    }
    if !budget.admits(v) {
        return Err(format!(
            "vis outside budget: rms {:e} max {:e}",
            v.rms, v.max
        ));
    }
    Ok(())
}

pub fn check_passes(p: &Passes, exp: &Expected) -> Result<(), String> {
    identical(&p.grid, &p.vis, exp)?;
    within_budget(&p.grid, &p.vis, exp)
}

/// The residual RMS must fall at every major cycle.
pub fn check_residual_falls(rms: &[f64], major_cycles: usize) -> Result<(), String> {
    if rms.len() != major_cycles + 1 {
        return Err(format!(
            "{} residual maps for {major_cycles} major cycles",
            rms.len()
        ));
    }
    if rms
        .windows(2)
        .any(|w| w[1].partial_cmp(&w[0]) != Some(Ordering::Less))
    {
        return Err(format!(
            "residual RMS does not fall at every cycle: {rms:?}"
        ));
    }
    Ok(())
}

/// Bit identity of two imaging runs.
pub fn same_cycle(a: &CycleOutput, b: &CycleOutput) -> Result<(), String> {
    let comps = |c: &CycleOutput| -> Vec<(usize, usize, u32)> {
        c.components
            .iter()
            .map(|k| (k.x, k.y, k.flux.to_bits()))
            .collect()
    };
    let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
    let pixels = |c: &CycleOutput| -> Vec<u32> {
        c.residual.as_slice().iter().map(|x| x.to_bits()).collect()
    };
    if comps(a) != comps(b)
        || bits(&a.residual_rms) != bits(&b.residual_rms)
        || pixels(a) != pixels(b)
    {
        return Err("imaging runs differ".into());
    }
    Ok(())
}

/// Attempted and failed ops.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Tally {
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            self.first_failure.get_or_insert(e);
        }
    }
}

/// The checks must count a corrupted output as failed: one grid sample
/// off by one bit (caught by bit identity), one visibility off by the
/// reference's largest magnitude (caught by the budget as well), and a
/// residual that rises once.
pub fn self_check(exp: &Expected, seed: u64) -> Result<(), String> {
    let mut grid = exp.grid.clone();
    let g = (seed as usize) % grid.as_slice().len();
    let sample = &mut grid.as_mut_slice()[g];
    sample.re = f32::from_bits(sample.re.to_bits() ^ 1);

    let mut vis = exp.vis.clone();
    let v = (seed as usize / 7) % vis.len();
    let peak = exp
        .ref_vis
        .iter()
        .flat_map(|x| x.pols)
        .map(|c| c.re.abs().max(c.im.abs()))
        .fold(0.0f32, f32::max);
    vis[v].pols[0].re += peak;

    let outcomes = [
        identical(&exp.grid, &exp.vis, exp),
        identical(&grid, &exp.vis, exp),
        within_budget(&exp.grid, &vis, exp),
        check_residual_falls(&[1.0, 0.5, 0.6], 2),
    ];
    let mut tally = Tally::default();
    let passed: Vec<bool> = outcomes
        .into_iter()
        .map(|o| {
            let ok = o.is_ok();
            tally.record(o);
            ok
        })
        .collect();
    if passed == [true, false, false, false] && tally.failed == 3 {
        Ok(())
    } else {
        Err(format!(
            "self-check: outcomes {passed:?}, {} of {} counted as failed",
            tally.failed, tally.attempted
        ))
    }
}
