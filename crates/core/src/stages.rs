//! Staged pipeline execution — the conformance harness's view of a
//! back-end.
//!
//! [`Proxy::grid`] and [`Proxy::degrid`] run their three kernel stages
//! back-to-back and only return the final product, which is the right
//! API for applications but useless for *attributing* a numerical
//! discrepancy: a grid that disagrees by 1e-3 says nothing about
//! whether the gridder, the subgrid FFT, or the adder diverged. The
//! `*_stages` variants here run the very same stage chains — behind the
//! same input validation — but snapshot every intermediate buffer, so
//! the conformance suite (`crates/conformance`) can compare back-ends
//! stage by stage against the scalar reference.
//!
//! These methods are *functional* only: no execution report, no
//! pipeline modeling. GPU back-ends execute their kernels in a
//! single launch group (numerically identical to the grouped launches
//! of [`idg_gpusim::GpuExecutor`], which partition work items purely
//! for the performance model).

use crate::proxy::Proxy;
use idg_kernels::SubgridArray;
use idg_plan::Plan;
use idg_telescope::ATerms;
use idg_types::{Grid, IdgError, Uvw, Visibility};

/// Every intermediate buffer of one gridding pass.
#[derive(Clone, Debug)]
pub struct GridStages {
    /// Image-domain subgrids straight out of the gridder kernel
    /// (taper and A-terms applied, before any FFT).
    pub gridder_subgrids: SubgridArray,
    /// The same subgrids after the forward FFT (Fourier domain,
    /// unnormalized, DC at index 0).
    pub fft_subgrids: SubgridArray,
    /// The final grid after the adder.
    pub grid: Grid<f32>,
}

/// Every intermediate buffer of one degridding pass.
#[derive(Clone, Debug)]
pub struct DegridStages {
    /// Subgrid regions extracted from the grid by the splitter
    /// (Fourier domain).
    pub split_subgrids: SubgridArray,
    /// The same subgrids after the inverse FFT (image domain).
    pub ifft_subgrids: SubgridArray,
    /// The predicted visibilities out of the degridder kernel.
    pub visibilities: Vec<Visibility<f32>>,
}

/// Take the next stage snapshot off the front of `snapshots`.
fn next_snapshot(
    snapshots: &mut std::vec::IntoIter<SubgridArray>,
) -> Result<SubgridArray, IdgError> {
    snapshots
        .next()
        .ok_or_else(|| IdgError::Internal("stage chain took no snapshot".into()))
}

impl Proxy {
    /// Run the gridding pass, snapshotting each stage.
    pub fn grid_stages(
        &self,
        plan: &Plan,
        uvw: &[Uvw],
        visibilities: &[Visibility<f32>],
        aterms: &ATerms,
    ) -> Result<GridStages, IdgError> {
        let data = self.checked_data(uvw, visibilities, aterms, None)?;
        let mut snapshots = Vec::new();
        let (fft_subgrids, _) = self.grid_chain(&data, &plan.items, None, Some(&mut snapshots))?;
        let (grid, _) = self.adder_stage(&plan.items, &fft_subgrids)?;
        Ok(GridStages {
            gridder_subgrids: next_snapshot(&mut snapshots.into_iter())?,
            fft_subgrids,
            grid,
        })
    }

    /// Run the degridding pass, snapshotting each stage.
    pub fn degrid_stages(
        &self,
        plan: &Plan,
        grid: &Grid<f32>,
        uvw: &[Uvw],
        aterms: &ATerms,
    ) -> Result<DegridStages, IdgError> {
        let zeros = vec![Visibility::<f32>::zero(); self.observation().nr_visibilities()];
        let data = self.checked_data(uvw, &zeros, aterms, Some(grid))?;
        let mut snapshots = Vec::new();
        let (visibilities, _) =
            self.degrid_chain(&data, &plan.items, grid, None, Some(&mut snapshots))?;
        let mut snapshots = snapshots.into_iter();
        Ok(DegridStages {
            split_subgrids: next_snapshot(&mut snapshots)?,
            ifft_subgrids: next_snapshot(&mut snapshots)?,
            visibilities,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proxy::Backend;
    use idg_telescope::{Dataset, Layout, SkyModel};
    use idg_types::Observation;

    fn dataset() -> Dataset {
        let obs = Observation::builder()
            .stations(4)
            .timesteps(16)
            .channels(2, 150e6, 2e6)
            .grid_size(128)
            .subgrid_size(16)
            .kernel_size(5)
            .aterm_interval(16)
            .image_size(0.05)
            .build()
            .unwrap();
        let layout = Layout::uniform(4, 700.0, 41);
        let sky = SkyModel::random(&obs, 3, 0.5, 43);
        Dataset::simulate(obs, &layout, sky, &idg_telescope::IdentityATerm)
    }

    #[test]
    fn stages_agree_with_the_monolithic_pass() {
        let ds = dataset();

        for backend in Backend::all() {
            let proxy = Proxy::new(backend, ds.obs.clone()).unwrap();
            let plan = proxy.plan(&ds.uvw).unwrap();

            let (grid, _) = proxy
                .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
                .unwrap();
            let stages = proxy
                .grid_stages(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
                .unwrap();
            assert_eq!(grid.as_slice(), stages.grid.as_slice(), "{backend:?} grid");

            let (vis, _) = proxy.degrid(&plan, &grid, &ds.uvw, &ds.aterms).unwrap();
            let dstages = proxy
                .degrid_stages(&plan, &grid, &ds.uvw, &ds.aterms)
                .unwrap();
            assert_eq!(vis, dstages.visibilities, "{backend:?} visibilities");
        }
    }

    #[test]
    fn staged_runs_reject_non_finite_inputs_with_a_typed_error() {
        let ds = dataset();
        let proxy = Proxy::new(Backend::CpuOptimized, ds.obs.clone()).unwrap();
        let plan = proxy.plan(&ds.uvw).unwrap();

        let mut bad_vis = ds.visibilities.clone();
        bad_vis[3].pols[1].re = f32::NAN;
        assert!(matches!(
            proxy.grid_stages(&plan, &ds.uvw, &bad_vis, &ds.aterms),
            Err(IdgError::InvalidParameter(_))
        ));

        let mut bad_grid = proxy
            .grid_stages(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap()
            .grid;
        bad_grid.as_mut_slice()[5].im = f32::NAN;
        assert!(matches!(
            proxy.degrid_stages(&plan, &bad_grid, &ds.uvw, &ds.aterms),
            Err(IdgError::InvalidParameter(_))
        ));
    }
}
