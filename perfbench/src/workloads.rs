//! The three workloads: shapes, generated inputs and the ready state.
//!
//! Every workload draws its source positions (and, for `cycle`, its beam
//! drift) from the run's seed. The station layout and the source fluxes
//! are fixed, so each seed exercises the same work shape (subgrids,
//! chunks, vis per subgrid, CLEAN work) with different data: the seed
//! changes what is computed, not how much.

use crate::trace::Tracer;
use idg::telescope::{ATermModel, Dataset, GaussianBeam, IdentityATerm, Layout, SkyModel};
use idg::{Backend, ChunkPolicy, IdgError, Observation, Plan, Proxy, StreamConfig};
use idg_imaging::CleanParams;

/// Seed of the fixed station layout (the repository's benchmark layout).
const LAYOUT_SEED: u64 = 42;

/// The closed-loop operation a workload repeats.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// `Proxy::grid_streamed`, then `Proxy::degrid_streamed` of that grid.
    Streamed,
    /// One-shot `Proxy::grid`, then `Proxy::degrid` of that grid.
    OneShot,
    /// `ImagingCycle::run`, then one-shot `Proxy::grid` + `Proxy::degrid`
    /// of the observed visibilities (the pass throughputs).
    Imaging,
}

/// A workload's shape; `smoke` variants keep the structure at a size
/// that runs in seconds.
#[derive(Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub op: OpKind,
    pub stations: usize,
    pub timesteps: usize,
    pub channels: usize,
    pub grid_size: usize,
    pub aterm_interval: usize,
    /// `Some(fraction)`: a drifting Gaussian beam of that width, so the
    /// A-term sandwich is active; `None`: identity A-terms.
    pub beam: Option<f64>,
    pub major_cycles: usize,
}

/// Chunking of every streamed pass (the admission window and worker
/// count match the machine's two cores).
pub fn stream_config() -> StreamConfig {
    StreamConfig::new(ChunkPolicy::by_timesteps(9), 2, 2)
}

/// CLEAN settings of the `cycle` workload.
pub fn clean_params() -> CleanParams {
    CleanParams {
        gain: 0.2,
        max_iterations: 200,
        threshold: 0.05,
        search_border: 0.25,
    }
}

impl Spec {
    pub fn named(name: &str, smoke: bool) -> Option<Spec> {
        let full = match name {
            // The repository's streamed benchmark data set at scale 15.
            "stream" => Spec {
                name: "stream",
                op: OpKind::Streamed,
                stations: 10,
                timesteps: 36,
                channels: 16,
                grid_size: 512,
                aterm_interval: 9,
                beam: None,
                major_cycles: 0,
            },
            "sparse" => Spec {
                name: "sparse",
                op: OpKind::OneShot,
                stations: 12,
                timesteps: 64,
                channels: 2,
                grid_size: 512,
                aterm_interval: 2,
                beam: None,
                major_cycles: 0,
            },
            "cycle" => Spec {
                name: "cycle",
                op: OpKind::Imaging,
                stations: 10,
                timesteps: 32,
                channels: 4,
                grid_size: 1024,
                aterm_interval: 32,
                beam: Some(0.7),
                major_cycles: 3,
            },
            _ => return None,
        };
        Some(if smoke { full.smoke() } else { full })
    }

    /// Same structure (chunking, occupancy, A-term path), a fraction of
    /// the work.
    fn smoke(self) -> Spec {
        match self.op {
            OpKind::Streamed => Spec {
                stations: 6,
                timesteps: 18,
                channels: 4,
                grid_size: 256,
                ..self
            },
            OpKind::OneShot => Spec {
                stations: 6,
                timesteps: 16,
                grid_size: 256,
                ..self
            },
            OpKind::Imaging => Spec {
                stations: 6,
                timesteps: 16,
                channels: 2,
                grid_size: 256,
                aterm_interval: 16,
                major_cycles: 1,
                ..self
            },
        }
    }

    pub fn observation(&self) -> Observation {
        Observation::builder()
            .stations(self.stations)
            .timesteps(self.timesteps)
            .channels(self.channels, 150e6, 1e6)
            .grid_size(self.grid_size)
            .subgrid_size(24)
            .aterm_interval(self.aterm_interval)
            .image_size(0.05)
            .build()
            .expect("workload observation parameters are valid")
    }

    /// Generate the inputs: the repository's SKA1-low-like layout scaled
    /// to the grid and 16 point sources at positions drawn from `seed`.
    /// The fluxes are fixed (log-spaced, 0.1 to 10 Jy) so that CLEAN
    /// finds the same amount of work above its threshold on every seed.
    pub fn simulate(&self, seed: u64) -> Dataset {
        let obs = self.observation();
        let lambda_min = obs.min_wavelength();
        let max_baseline_m = obs.max_uv_wavelengths() * lambda_min;
        let arm_radius = (0.40 * max_baseline_m).min(18_000.0);
        let core_radius = (arm_radius / 10.0).min(1_000.0);
        let layout = Layout::ska1_low(obs.nr_stations, core_radius, arm_radius, LAYOUT_SEED);
        let mut sky = SkyModel::random(&obs, 16, 0.7, seed ^ 0x5137);
        for (k, source) in sky.sources.iter_mut().enumerate() {
            source.flux = 10f64.powf(-1.0 + 2.0 * k as f64 / 15.0);
        }
        let model: Box<dyn ATermModel> = match self.beam {
            Some(fraction) => Box::new(GaussianBeam::new(&obs, fraction, seed)),
            None => Box::new(IdentityATerm),
        };
        Dataset::simulate(obs, &layout, sky, model.as_ref())
    }
}

/// The ready state every op starts from.
pub struct Ready {
    pub ds: Dataset,
    pub proxy: Proxy,
    pub plan: Plan,
}

/// Build inputs and ready state: `Dataset::simulate`, `Proxy::new`,
/// `Proxy::plan` — everything `setup_s` times.
pub fn set_up(spec: &Spec, seed: u64, tracer: &Tracer, op: u64) -> Result<Ready, IdgError> {
    let ds = tracer.span("telescope.simulate", None, op, |_| spec.simulate(seed));
    let proxy = Proxy::new(Backend::CpuOptimized, ds.obs.clone())?;
    let plan = tracer.span("plan.create", None, op, |_| proxy.plan(&ds.uvw))?;
    Ok(Ready { ds, proxy, plan })
}
