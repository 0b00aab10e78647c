//! The proxy: one entry point per back-end.
//!
//! Mirrors the proxy layer of the reference IDG library: the application
//! hands over observation parameters once, then issues `grid`/`degrid`
//! calls against whichever back-end was selected. CPU back-ends execute
//! and *measure*; GPU back-ends execute the device model and *model*
//! their times (see DESIGN.md, substitutions). Each direction has one
//! CPU stage chain (shared with the streamed chunk passes and the
//! `*_stages` views) and one device path.

use crate::report::ExecutionReport;
use idg_fft::Direction;
use idg_gpusim::kernels::{degridder_gpu, gridder_gpu};
use idg_gpusim::{
    BreakerConfig, Device, FaultConfig, FleetExecutor, GpuExecutor, JobFailure, Pass, RetryPolicy,
};
use idg_kernels::{
    add_subgrids, degridder_cpu, degridder_reference, fft_subgrids, gridder_cpu, gridder_reference,
    split_subgrids, FftNorm, KernelCache, KernelData, SubgridArray,
};
use idg_math::Accuracy;
use idg_perf::{degridder_counts, gridder_counts, OpCounts};
use idg_plan::{Plan, WorkItem};
use idg_telescope::ATerms;
use idg_types::{Grid, IdgError, Observation, Uvw, Visibility};
use std::sync::Arc;
use std::time::Instant;

pub mod streaming;
pub use streaming::StreamConfig;

/// Which implementation executes the kernels.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Scalar double-precision reference kernels (gold standard).
    CpuReference,
    /// Optimized CPU kernels of Sec. V-B (measured).
    CpuOptimized,
    /// GTX 1080 device model running the Sec. V-C mapping (modeled).
    GpuPascal,
    /// Fury X device model running the Sec. V-C mapping (modeled).
    GpuFiji,
}

impl Backend {
    /// Human-readable label used in reports and figures.
    pub fn label(&self) -> &'static str {
        match self {
            Backend::CpuReference => "cpu-reference",
            Backend::CpuOptimized => "cpu-optimized",
            Backend::GpuPascal => "gpu-pascal",
            Backend::GpuFiji => "gpu-fiji",
        }
    }

    /// All back-ends, CPU first.
    pub fn all() -> [Backend; 4] {
        [
            Backend::CpuReference,
            Backend::CpuOptimized,
            Backend::GpuPascal,
            Backend::GpuFiji,
        ]
    }

    /// Whether passes run on the device model (modeled times) rather
    /// than on measured CPU kernels.
    pub(crate) fn modeled(self) -> bool {
        matches!(self, Backend::GpuPascal | Backend::GpuFiji)
    }
}

/// Multi-device execution configuration for GPU back-ends.
///
/// When attached to a [`Proxy`] (see [`Proxy::with_fleet`]), gridding
/// and degridding passes are partitioned across `nr_devices` clones of
/// the back-end's device model by a [`FleetExecutor`], with per-device
/// circuit breakers and the OOM degradation ladder between the plain
/// device path and the proxy's per-job CPU fallback.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Number of member devices (clamped to at least 1).
    pub nr_devices: usize,
    /// Per-member fault schedules `(member index, schedule)`, applied
    /// on top of the proxy-wide [`Proxy::fault_config`] (which, when
    /// set, seeds *every* member).
    pub member_faults: Vec<(usize, FaultConfig)>,
    /// Circuit-breaker tuning shared by all members (`None` uses
    /// [`BreakerConfig::default`]).
    pub breaker: Option<BreakerConfig>,
}

impl FleetConfig {
    /// A fault-free homogeneous fleet of `nr_devices` members.
    pub fn new(nr_devices: usize) -> Self {
        Self {
            nr_devices: nr_devices.max(1),
            member_faults: Vec::new(),
            breaker: None,
        }
    }
}

/// A configured IDG instance for one observation.
pub struct Proxy {
    backend: Backend,
    obs: Observation,
    taper: Vec<f32>,
    /// Work items per (modeled) kernel launch on GPU back-ends.
    pub work_group_size: usize,
    /// Optional device fault-injection schedule (GPU back-ends).
    pub fault_config: Option<FaultConfig>,
    /// Retry policy for transient device faults (GPU back-ends).
    pub retry_policy: RetryPolicy,
    /// Re-execute persistently failed device jobs on the CPU reference
    /// kernels and merge their outputs (graceful degradation; the
    /// fallback is flagged in the report). When disabled, a persistent
    /// device fault fails the whole pass with its classified error.
    pub cpu_fallback: bool,
    /// Multi-device execution: when set, GPU passes run on a
    /// [`FleetExecutor`] over `nr_devices` clones of the back-end's
    /// device model instead of a single [`GpuExecutor`].
    pub fleet: Option<FleetConfig>,
    /// Pass-level kernel cache: geometry planes and adder/splitter
    /// phasor tables, built on the first pass and reused by every later
    /// one (shared with GPU executors).
    cache: Arc<KernelCache>,
}

impl Proxy {
    /// Create a proxy; precomputes the prolate-spheroidal taper.
    pub fn new(backend: Backend, obs: Observation) -> Result<Self, IdgError> {
        obs.validate()?;
        let taper = idg_math::spheroidal_2d(obs.subgrid_size);
        Ok(Self {
            backend,
            obs,
            taper,
            work_group_size: 256,
            fault_config: None,
            retry_policy: RetryPolicy::default(),
            cpu_fallback: true,
            fleet: None,
            cache: Arc::new(KernelCache::new()),
        })
    }

    /// The proxy's pass-level kernel cache (hit/miss inspection).
    pub fn kernel_cache(&self) -> &KernelCache {
        &self.cache
    }

    /// Attach a device fault-injection schedule (GPU back-ends; CPU
    /// back-ends ignore it). With a fleet configured, the schedule
    /// seeds every member (see [`FleetConfig::member_faults`] for
    /// per-member overrides).
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.fault_config = Some(faults);
        self
    }

    /// Run GPU passes across a fleet of `nr_devices` clones of the
    /// back-end's device model (CPU back-ends ignore it).
    pub fn with_fleet(mut self, nr_devices: usize) -> Self {
        self.fleet = Some(FleetConfig::new(nr_devices));
        self
    }

    /// Full fleet configuration (member fault schedules, breaker
    /// tuning); see [`Proxy::with_fleet`] for the plain case.
    pub fn with_fleet_config(mut self, config: FleetConfig) -> Self {
        self.fleet = Some(config);
        self
    }

    /// The observation this proxy was configured for.
    pub fn observation(&self) -> &Observation {
        &self.obs
    }

    /// The back-end in use.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The image-domain taper applied per subgrid (`subgrid_size²`).
    pub fn taper(&self) -> &[f32] {
        &self.taper
    }

    /// Build the execution plan for a uvw buffer
    /// (`[baseline][timestep]`, meters).
    pub fn plan(&self, uvw: &[Uvw]) -> Result<Plan, IdgError> {
        Plan::create(&self.obs, uvw)
    }

    fn device(&self) -> Result<Device, IdgError> {
        match self.backend {
            Backend::GpuPascal => Ok(Device::pascal()),
            Backend::GpuFiji => Ok(Device::fiji()),
            _ => Err(IdgError::InvalidParameter(format!(
                "device() requires a GPU back-end, got {:?}",
                self.backend
            ))),
        }
    }

    /// The kernel inputs of one pass, checked at the proxy boundary —
    /// the one validation every entry point runs. Shapes first, then
    /// finiteness: a single NaN/Inf visibility silently poisons the
    /// entire grid (NaN propagates through every accumulation), a NaN
    /// coordinate corrupts the plan's subgrid placement, and a
    /// non-finite model grid poisons every prediction — so the error
    /// must be typed and early. A `grid` marks the degridding
    /// direction, whose `visibilities` only supply the buffer shape.
    pub(crate) fn checked_data<'a>(
        &'a self,
        uvw: &'a [Uvw],
        visibilities: &'a [Visibility<f32>],
        aterms: &'a ATerms,
        grid: Option<&Grid<f32>>,
    ) -> Result<KernelData<'a>, IdgError> {
        let data = KernelData {
            obs: &self.obs,
            uvw,
            visibilities,
            aterms,
            taper: &self.taper,
        };
        data.validate()?;
        let non_finite = |c: &idg_types::Cf32| !c.re.is_finite() || !c.im.is_finite();
        if grid.is_none() {
            if let Some(i) = visibilities
                .iter()
                .position(|v| v.pols.iter().any(non_finite))
            {
                return Err(IdgError::InvalidParameter(format!(
                    "visibility {i} is non-finite (NaN/Inf)"
                )));
            }
        }
        if let Some(i) = uvw
            .iter()
            .position(|c| !c.u.is_finite() || !c.v.is_finite() || !c.w.is_finite())
        {
            return Err(IdgError::InvalidParameter(format!(
                "uvw coordinate {i} is non-finite (NaN/Inf)"
            )));
        }
        if let Some(grid) = grid {
            if grid.as_slice().iter().any(non_finite) {
                return Err(IdgError::InvalidParameter(
                    "model grid contains non-finite (NaN/Inf) samples".into(),
                ));
            }
            if grid.size() != self.obs.grid_size {
                return Err(IdgError::ShapeMismatch {
                    what: "grid",
                    expected: self.obs.grid_size,
                    actual: grid.size(),
                });
            }
        }
        Ok(data)
    }

    /// The CPU stage chain of a gridding pass on this back-end's
    /// kernels, up to the commit: gridder → subgrid FFT, each under a
    /// wall span tagged `tag`. GPU back-ends only get here through
    /// `grid_stages` (one launch of the device model's gridder).
    /// `snapshots` receives a copy of the gridder's output. Returns the
    /// subgrids and the measured `[gridder, fft]` seconds.
    pub(crate) fn grid_chain(
        &self,
        data: &KernelData<'_>,
        items: &[WorkItem],
        tag: Option<u32>,
        snapshots: Option<&mut Vec<SubgridArray>>,
    ) -> Result<(SubgridArray, [f64; 2]), IdgError> {
        let mut subgrids = SubgridArray::new(items.len(), self.obs.subgrid_size);
        let t0 = Instant::now();
        {
            let _span = idg_obs::wall_span("gridder", "stage", tag);
            match self.backend {
                Backend::CpuReference => gridder_reference(data, items, &mut subgrids)?,
                Backend::CpuOptimized => {
                    gridder_cpu(data, items, &mut subgrids, Accuracy::Medium, &self.cache)?;
                }
                Backend::GpuPascal | Backend::GpuFiji => {
                    gridder_gpu(data, items, &mut subgrids, &self.device()?, &self.cache)?;
                }
            }
        }
        let t1 = Instant::now();
        if let Some(snapshots) = snapshots {
            snapshots.push(subgrids.clone());
        }
        {
            let _span = idg_obs::wall_span("subgrid_fft", "stage", tag);
            fft_subgrids(&mut subgrids, Direction::Forward, FftNorm::None);
        }
        let t2 = Instant::now();
        Ok((subgrids, [(t1 - t0).as_secs_f64(), (t2 - t1).as_secs_f64()]))
    }

    /// The gridding commit: one adder call over every subgrid into a
    /// fresh grid, in `items` order — so the f32 accumulation order is
    /// that order. Returns the grid and the stage's wall seconds.
    pub(crate) fn adder_stage(
        &self,
        items: &[WorkItem],
        subgrids: &SubgridArray,
    ) -> Result<(Grid<f32>, f64), IdgError> {
        let t0 = Instant::now();
        let mut grid = Grid::<f32>::new(self.obs.grid_size);
        {
            let _span = idg_obs::wall_span("adder", "stage", None);
            add_subgrids(&mut grid, items, subgrids, &self.cache)?;
        }
        Ok((grid, t0.elapsed().as_secs_f64()))
    }

    /// The CPU stage chain of a degridding pass on this back-end's
    /// kernels: splitter → inverse subgrid FFT → degridder, each under
    /// a wall span tagged `tag` (GPU back-ends: `degrid_stages` only).
    /// `snapshots` receives copies of the split and transformed
    /// subgrids. Returns the predicted visibilities and the measured
    /// `[degridder, fft, splitter]` seconds.
    pub(crate) fn degrid_chain(
        &self,
        data: &KernelData<'_>,
        items: &[WorkItem],
        grid: &Grid<f32>,
        tag: Option<u32>,
        mut snapshots: Option<&mut Vec<SubgridArray>>,
    ) -> Result<(Vec<Visibility<f32>>, [f64; 3]), IdgError> {
        let mut subgrids = SubgridArray::new(items.len(), self.obs.subgrid_size);
        let t0 = Instant::now();
        {
            let _span = idg_obs::wall_span("splitter", "stage", tag);
            split_subgrids(grid, items, &mut subgrids, &self.cache)?;
        }
        let t1 = Instant::now();
        if let Some(snapshots) = snapshots.as_deref_mut() {
            snapshots.push(subgrids.clone());
        }
        {
            let _span = idg_obs::wall_span("subgrid_ifft", "stage", tag);
            fft_subgrids(&mut subgrids, Direction::Inverse, FftNorm::None);
        }
        let t2 = Instant::now();
        if let Some(snapshots) = snapshots {
            snapshots.push(subgrids.clone());
        }
        let mut vis = vec![Visibility::<f32>::zero(); self.obs.nr_visibilities()];
        {
            let _span = idg_obs::wall_span("degridder", "stage", tag);
            match self.backend {
                Backend::CpuReference => degridder_reference(data, items, &subgrids, &mut vis)?,
                Backend::CpuOptimized => degridder_cpu(
                    data,
                    items,
                    &subgrids,
                    &mut vis,
                    Accuracy::Medium,
                    &self.cache,
                )?,
                Backend::GpuPascal | Backend::GpuFiji => {
                    let device = self.device()?;
                    degridder_gpu(data, items, &subgrids, &mut vis, &device, &self.cache)?;
                }
            }
        }
        let t3 = Instant::now();
        let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
        Ok((vis, [secs(t2, t3), secs(t1, t2), secs(t0, t1)]))
    }

    fn executor(&self) -> Result<GpuExecutor, IdgError> {
        let executor = GpuExecutor::new(self.device()?, self.work_group_size)
            .with_retry_policy(self.retry_policy)
            .with_cache(Arc::clone(&self.cache));
        Ok(match &self.fault_config {
            Some(f) => executor.with_faults(f.clone()),
            None => executor,
        })
    }

    /// Build the fleet executor for `config`, sharing the proxy's
    /// kernel cache across all members.
    fn fleet_executor(&self, config: &FleetConfig) -> Result<FleetExecutor, IdgError> {
        let mut fleet =
            FleetExecutor::uniform(self.device()?, config.nr_devices, self.work_group_size)
                .with_retry_policy(self.retry_policy)
                .with_cache(Arc::clone(&self.cache));
        if let Some(f) = &self.fault_config {
            for member in 0..config.nr_devices {
                fleet = fleet.with_member_faults(member, f.clone());
            }
        }
        for (member, faults) in &config.member_faults {
            if *member >= config.nr_devices {
                return Err(IdgError::InvalidParameter(format!(
                    "fleet member fault index {member} out of range (fleet has {} devices)",
                    config.nr_devices
                )));
            }
            fleet = fleet.with_member_faults(*member, faults.clone());
        }
        if let Some(breaker) = config.breaker {
            fleet = fleet.with_breaker(breaker);
        }
        Ok(fleet)
    }

    /// The device path of either direction: run `pass` on the fleet
    /// when one is configured, else on one device, then hand the
    /// persistently failed jobs to [`Proxy::cpu_fallback`].
    pub(crate) fn device_pass(
        &self,
        data: &KernelData<'_>,
        plan: &Plan,
        pass: &mut Pass<'_>,
    ) -> Result<ExecutionReport, IdgError> {
        let run = match &self.fleet {
            Some(config) => self.fleet_executor(config)?.run(data, plan, pass)?,
            None => self.executor()?.run(data, plan, pass)?,
        };
        self.cpu_fallback(data, plan, pass, &run.failed_jobs)?;
        let nr_devices = self.fleet.as_ref().map(|c| c.nr_devices);
        Ok(ExecutionReport::from_run(self.backend, run, nr_devices))
    }

    /// Graceful degradation after a device pass: re-execute the
    /// persistently failed jobs on the CPU reference kernels into the
    /// pass's own commit target — after the device's commits, so a
    /// deferred pass's fallback output joins the same single in-order
    /// commit. Errors with the first failure's classified error when
    /// the fallback is disabled.
    fn cpu_fallback(
        &self,
        data: &KernelData<'_>,
        plan: &Plan,
        pass: &mut Pass<'_>,
        failed_jobs: &[JobFailure],
    ) -> Result<(), IdgError> {
        if let Some(failure) = failed_jobs.first().filter(|_| !self.cpu_fallback) {
            return Err(failure.error.clone());
        }
        idg_obs::add_fallback_jobs(failed_jobs.len() as u64);
        let n = self.obs.subgrid_size;
        let reference_subgrids = |items: &[WorkItem]| -> Result<SubgridArray, IdgError> {
            let mut subgrids = SubgridArray::new(items.len(), n);
            gridder_reference(data, items, &mut subgrids)?;
            fft_subgrids(&mut subgrids, Direction::Forward, FftNorm::None);
            Ok(subgrids)
        };
        for failure in failed_jobs {
            let _span = idg_obs::wall_span("cpu_fallback", "job", u32::try_from(failure.job).ok());
            let range = failure.first_item..failure.first_item + failure.nr_items;
            let items = &plan.items[range.clone()];
            match pass {
                Pass::Grid(grid) => {
                    add_subgrids(grid, items, &reference_subgrids(items)?, &self.cache)?;
                }
                Pass::GridDeferred(pending) => pending.push((range, reference_subgrids(items)?)),
                Pass::Degrid(grid, out) => {
                    let mut subgrids = SubgridArray::new(items.len(), n);
                    split_subgrids(grid, items, &mut subgrids, &self.cache)?;
                    fft_subgrids(&mut subgrids, Direction::Inverse, FftNorm::None);
                    degridder_reference(data, items, &subgrids, &mut out.vis)?;
                    out.ranges.push(range);
                }
            }
        }
        Ok(())
    }

    /// Grid visibilities onto a new grid.
    pub fn grid(
        &self,
        plan: &Plan,
        uvw: &[Uvw],
        visibilities: &[Visibility<f32>],
        aterms: &ATerms,
    ) -> Result<(Grid<f32>, ExecutionReport), IdgError> {
        let data = self.checked_data(uvw, visibilities, aterms, None)?;
        if self.backend.modeled() {
            let mut grid = Grid::<f32>::new(self.obs.grid_size);
            let report = self.device_pass(&data, plan, &mut Pass::Grid(&mut grid))?;
            return Ok((grid, report));
        }
        let (subgrids, [t_kernel, t_fft]) = self.grid_chain(&data, &plan.items, None, None)?;
        let (grid, t_add) = self.adder_stage(&plan.items, &subgrids)?;
        let counts = gridder_counts(&plan.items, self.obs.subgrid_size);
        let report =
            ExecutionReport::new(self.backend, "gridding", counts, [t_kernel, t_fft, t_add]);
        Ok((grid, report))
    }

    /// Predict visibilities from a model grid.
    ///
    /// The predicted buffer covers the whole observation; slots no work
    /// item covers stay zero.
    pub fn degrid(
        &self,
        plan: &Plan,
        grid: &Grid<f32>,
        uvw: &[Uvw],
        aterms: &ATerms,
    ) -> Result<(Vec<Visibility<f32>>, ExecutionReport), IdgError> {
        let zeros = vec![Visibility::<f32>::zero(); self.obs.nr_visibilities()];
        let data = self.checked_data(uvw, &zeros, aterms, Some(grid))?;
        if self.backend.modeled() {
            let mut out = Default::default();
            let report = self.device_pass(&data, plan, &mut Pass::Degrid(grid, &mut out))?;
            return Ok((out.vis, report));
        }
        let (vis, times) = self.degrid_chain(&data, &plan.items, grid, None, None)?;
        let counts = degridder_counts(&plan.items, self.obs.subgrid_size);
        Ok((
            vis,
            ExecutionReport::new(self.backend, "degridding", counts, times),
        ))
    }

    /// Run [`Proxy::grid`] under an observability session.
    ///
    /// Returns the grid, the report with [`ExecutionReport::metrics`]
    /// attached, and the full [`idg_obs::Trace`] (spans + counter
    /// snapshot, exportable with [`idg_obs::chrome_trace_json`]). On
    /// clean runs — no fault injection, no retries, no CPU fallback —
    /// the measured kernel counters are cross-validated against the
    /// analytic `idg_perf` model with exact integer equality; a
    /// mismatch fails the pass with [`IdgError::Internal`], so every
    /// observed run doubles as an assertion that the performance model
    /// is correct.
    pub fn grid_observed(
        &self,
        plan: &Plan,
        uvw: &[Uvw],
        visibilities: &[Visibility<f32>],
        aterms: &ATerms,
    ) -> Result<(Grid<f32>, ExecutionReport, idg_obs::Trace), IdgError> {
        self.observed(
            "gridding",
            || self.grid(plan, uvw, visibilities, aterms),
            || Ok(self.one_shot_expectations(plan, true)),
        )
    }

    /// Run [`Proxy::degrid`] under an observability session (see
    /// [`Proxy::grid_observed`] for the validation contract).
    pub fn degrid_observed(
        &self,
        plan: &Plan,
        grid: &Grid<f32>,
        uvw: &[Uvw],
        aterms: &ATerms,
    ) -> Result<(Vec<Visibility<f32>>, ExecutionReport, idg_obs::Trace), IdgError> {
        self.observed(
            "degridding",
            || self.degrid(plan, grid, uvw, aterms),
            || Ok(self.one_shot_expectations(plan, false)),
        )
    }

    /// What an observed one-shot pass must measure: the analytic
    /// counts, one kernel invocation per work item, and the kernel-cache
    /// lookups — once per pass on the reference path (the
    /// adder/splitter phasor tables), twice on the optimized CPU path
    /// (geometry planes + phasor tables) and twice per work group on
    /// the GPU path (each job's compute and commit look up
    /// independently).
    fn one_shot_expectations(&self, plan: &Plan, gridding: bool) -> (OpCounts, u64, u64) {
        let counts = match gridding {
            true => gridder_counts(&plan.items, self.obs.subgrid_size),
            false => degridder_counts(&plan.items, self.obs.subgrid_size),
        };
        let lookups = match self.backend {
            Backend::CpuReference => 1,
            Backend::CpuOptimized => 2,
            Backend::GpuPascal | Backend::GpuFiji => {
                2 * plan.work_groups(self.work_group_size).count() as u64
            }
        };
        (counts, plan.items.len() as u64, lookups)
    }

    /// Run one pass under an observability session, attach its metrics
    /// to the report, and cross-validate them against `expected` —
    /// `(analytic counts, kernel invocations, cache lookups)` — with
    /// exact integer equality, field by field. Validation is skipped
    /// for runs where kernels legitimately execute more than once per
    /// work item: retries and CPU fallbacks re-run them, fault
    /// injection may re-run the compute phase for checksum staging,
    /// and fleet re-dispatches, breaker trips and degraded (chunked)
    /// jobs change how often kernels and cache lookups run.
    pub(crate) fn observed<T>(
        &self,
        pass: &'static str,
        run: impl FnOnce() -> Result<(T, ExecutionReport), IdgError>,
        expected: impl FnOnce() -> Result<(OpCounts, u64, u64), IdgError>,
    ) -> Result<(T, ExecutionReport, idg_obs::Trace), IdgError> {
        let session = idg_obs::Session::begin(pass);
        let result = run();
        let trace = session.finish();
        let (out, mut report) = result?;
        report.metrics = Some(trace.metrics.clone());
        let fleet_perturbed = self
            .fleet
            .as_ref()
            .is_some_and(|c| !c.member_faults.is_empty())
            || report.fleet.as_ref().is_some_and(|f| {
                f.redispatched_jobs > 0 || f.degradation_steps > 0 || f.breaker_trips > 0
            });
        if self.fault_config.is_some()
            || report.nr_retries > 0
            || !report.fallback_jobs.is_empty()
            || fleet_perturbed
        {
            return Ok((out, report, trace));
        }
        let (analytic, nr_items, expected_lookups) = expected()?;
        let what = match report.stream {
            Some(_) => format!("streamed {}", report.pass),
            None => report.pass.to_string(),
        };
        let k = trace.metrics.pass_kernel();
        let lookups = trace.metrics.cache_hits + trace.metrics.cache_misses;
        let checks = [
            ("visibilities", k.visibilities, analytic.visibilities),
            ("sincos_pairs", k.sincos_pairs, analytic.sincos_pairs),
            ("fmas", k.fmas, analytic.fmas),
            ("dram_bytes", k.dram_bytes, analytic.dram_bytes),
            ("shared_bytes", k.shared_bytes, analytic.shared_bytes),
            ("invocations", k.invocations, nr_items),
        ];
        let checks = checks.map(|(name, m, p)| (name, m, p, "analytic"));
        let cache = ("cache lookups", lookups, expected_lookups, "expected");
        for (name, measured, predicted, basis) in checks.into_iter().chain([cache]) {
            if measured != predicted {
                return Err(IdgError::Internal(format!(
                    "observability self-validation failed: {what} {name} measured {measured} \
                     != {basis} {predicted}"
                )));
            }
        }
        Ok((out, report, trace))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idg_telescope::{Dataset, GaussianBeam, Layout, SkyModel};

    fn dataset() -> Dataset {
        let obs = Observation::builder()
            .stations(6)
            .timesteps(32)
            .channels(4, 150e6, 2e6)
            .grid_size(256)
            .subgrid_size(16)
            .kernel_size(5)
            .aterm_interval(16)
            .image_size(0.05)
            .build()
            .unwrap();
        let layout = Layout::uniform(6, 900.0, 71);
        let sky = SkyModel::random(&obs, 4, 0.6, 73);
        let beam = GaussianBeam::new(&obs, 0.8, 79);
        Dataset::simulate(obs, &layout, sky, &beam)
    }

    #[test]
    fn all_backends_produce_equivalent_grids() {
        let ds = dataset();
        let mut grids = Vec::new();
        for backend in Backend::all() {
            let proxy = Proxy::new(backend, ds.obs.clone()).unwrap();
            let plan = proxy.plan(&ds.uvw).unwrap();
            let (grid, report) = proxy
                .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
                .unwrap();
            assert!(grid.power() > 0.0, "{backend:?}");
            assert_eq!(report.pass, "gridding");
            assert_eq!(
                report.modeled,
                matches!(backend, Backend::GpuPascal | Backend::GpuFiji)
            );
            grids.push(grid);
        }
        let reference = &grids[0];
        let scale = reference
            .as_slice()
            .iter()
            .map(|c| c.abs())
            .fold(1e-9f32, f32::max);
        for grid in &grids[1..] {
            for (a, b) in grid.as_slice().iter().zip(reference.as_slice()) {
                assert!((*a - *b).abs() / scale < 3e-3, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn all_backends_produce_equivalent_predictions() {
        let ds = dataset();
        // model grid: grid the data once
        let proxy0 = Proxy::new(Backend::CpuReference, ds.obs.clone()).unwrap();
        let plan = proxy0.plan(&ds.uvw).unwrap();
        let (grid, _) = proxy0
            .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap();

        let mut results = Vec::new();
        for backend in Backend::all() {
            let proxy = Proxy::new(backend, ds.obs.clone()).unwrap();
            let (vis, report) = proxy.degrid(&plan, &grid, &ds.uvw, &ds.aterms).unwrap();
            assert_eq!(report.pass, "degridding");
            assert!(report.counts.visibilities > 0);
            results.push(vis);
        }
        let reference = &results[0];
        let scale = reference
            .iter()
            .flat_map(|v| v.pols.iter())
            .map(|c| c.abs())
            .fold(1e-9f32, f32::max);
        for vis in &results[1..] {
            for (a, b) in vis.iter().zip(reference.iter()) {
                for p in 0..4 {
                    assert!((a.pols[p] - b.pols[p]).abs() / scale < 3e-3);
                }
            }
        }
    }

    #[test]
    fn gpu_reports_contain_energy_and_pipeline_metrics() {
        let ds = dataset();
        let proxy = Proxy::new(Backend::GpuPascal, ds.obs.clone()).unwrap();
        let plan = proxy.plan(&ds.uvw).unwrap();
        let (_, report) = proxy
            .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap();
        assert!(report.device_energy_j.unwrap() > 0.0);
        assert!(report.host_energy_j.unwrap() > 0.0);
        assert!(report.mvis_per_sec() > 0.0);
        assert!(report.kernel_tops() > 0.0);
    }

    #[test]
    fn cpu_reports_are_measured() {
        let ds = dataset();
        let proxy = Proxy::new(Backend::CpuOptimized, ds.obs.clone()).unwrap();
        let plan = proxy.plan(&ds.uvw).unwrap();
        let (_, report) = proxy
            .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap();
        assert!(!report.modeled);
        assert!(report.total_seconds > 0.0);
        assert!(report.device_energy_j.is_none());
        let text = report.to_string();
        assert!(text.contains("cpu-optimized"));
    }

    #[test]
    fn degrid_rejects_wrong_grid_size() {
        let ds = dataset();
        let proxy = Proxy::new(Backend::CpuOptimized, ds.obs.clone()).unwrap();
        let plan = proxy.plan(&ds.uvw).unwrap();
        let wrong = Grid::<f32>::new(64);
        assert!(matches!(
            proxy.degrid(&plan, &wrong, &ds.uvw, &ds.aterms),
            Err(IdgError::ShapeMismatch { what: "grid", .. })
        ));
    }

    #[test]
    fn non_finite_inputs_are_rejected_with_a_typed_error() {
        let ds = dataset();
        let proxy = Proxy::new(Backend::CpuOptimized, ds.obs.clone()).unwrap();
        let plan = proxy.plan(&ds.uvw).unwrap();

        let mut bad_vis = ds.visibilities.clone();
        bad_vis[7].pols[2].im = f32::NAN;
        assert!(matches!(
            proxy.grid(&plan, &ds.uvw, &bad_vis, &ds.aterms),
            Err(IdgError::InvalidParameter(msg)) if msg.contains("visibility 7")
        ));

        let mut bad_vis = ds.visibilities.clone();
        bad_vis[0].pols[0].re = f32::INFINITY;
        assert!(matches!(
            proxy.grid(&plan, &ds.uvw, &bad_vis, &ds.aterms),
            Err(IdgError::InvalidParameter(_))
        ));

        let mut bad_uvw = ds.uvw.clone();
        bad_uvw[3].w = f32::NAN;
        assert!(matches!(
            proxy.grid(&plan, &bad_uvw, &ds.visibilities, &ds.aterms),
            Err(IdgError::InvalidParameter(msg)) if msg.contains("uvw coordinate 3")
        ));
        let (grid, _) = proxy
            .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap();
        assert!(matches!(
            proxy.degrid(&plan, &grid, &bad_uvw, &ds.aterms),
            Err(IdgError::InvalidParameter(_))
        ));

        let mut bad_grid = grid.clone();
        bad_grid.as_mut_slice()[11].re = f32::NAN;
        assert!(matches!(
            proxy.degrid(&plan, &bad_grid, &ds.uvw, &ds.aterms),
            Err(IdgError::InvalidParameter(_))
        ));
    }

    #[test]
    fn persistent_device_faults_fall_back_to_the_cpu() {
        use idg_gpusim::{FaultKind, TargetedFault};
        use idg_types::FaultSite;

        let ds = dataset();
        let mut gold_proxy = Proxy::new(Backend::GpuPascal, ds.obs.clone()).unwrap();
        gold_proxy.work_group_size = 4;
        let plan = gold_proxy.plan(&ds.uvw).unwrap();
        let (gold, _) = gold_proxy
            .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap();

        // job 1 hits device OOM: persistent, so the proxy re-executes
        // its work items on the CPU reference kernels
        let mut proxy = Proxy::new(Backend::GpuPascal, ds.obs.clone()).unwrap();
        proxy.work_group_size = 4;
        let proxy = proxy.with_faults(FaultConfig::targeted(vec![TargetedFault {
            job: 1,
            attempt: 0,
            site: FaultSite::Alloc,
            kind: FaultKind::OutOfMemory,
        }]));
        let (grid, report) = proxy
            .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap();

        assert_eq!(report.fallback_jobs.len(), 1);
        assert_eq!(report.fallback_jobs[0].job, 1);
        assert!(!report.fallback_jobs[0].error.is_transient());
        assert!(report.to_string().contains("re-executed on the CPU"));

        // the merged grid is numerically equivalent to the all-device
        // run (the fallback kernels are the f64 reference family)
        let scale = gold
            .as_slice()
            .iter()
            .map(|c| c.abs())
            .fold(1e-9f32, f32::max);
        for (a, b) in grid.as_slice().iter().zip(gold.as_slice()) {
            assert!((*a - *b).abs() / scale < 3e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn disabled_fallback_surfaces_the_classified_error() {
        use idg_gpusim::{FaultKind, TargetedFault};
        use idg_types::FaultSite;

        let ds = dataset();
        let mut proxy = Proxy::new(Backend::GpuFiji, ds.obs.clone()).unwrap();
        proxy.work_group_size = 4;
        proxy.cpu_fallback = false;
        let proxy = proxy.with_faults(FaultConfig::targeted(vec![TargetedFault {
            job: 0,
            attempt: 0,
            site: FaultSite::Alloc,
            kind: FaultKind::OutOfMemory,
        }]));
        let plan = proxy.plan(&ds.uvw).unwrap();
        assert!(matches!(
            proxy.grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms),
            Err(IdgError::DeviceOutOfMemory { .. })
        ));
    }

    #[test]
    fn transient_faults_recover_without_fallback() {
        use idg_gpusim::{FaultKind, TargetedFault};
        use idg_types::FaultSite;

        let ds = dataset();
        let mut gold_proxy = Proxy::new(Backend::GpuPascal, ds.obs.clone()).unwrap();
        gold_proxy.work_group_size = 8;
        let plan = gold_proxy.plan(&ds.uvw).unwrap();
        let (gold, _) = gold_proxy
            .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap();

        let mut proxy = Proxy::new(Backend::GpuPascal, ds.obs.clone()).unwrap();
        proxy.work_group_size = 8;
        let proxy = proxy.with_faults(FaultConfig::targeted(vec![TargetedFault {
            job: 0,
            attempt: 0,
            site: FaultSite::HtoD,
            kind: FaultKind::TransferCorruption,
        }]));
        let (grid, report) = proxy
            .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap();
        assert_eq!(report.nr_retries, 1);
        assert!(report.backoff_seconds > 0.0);
        assert!(report.fallback_jobs.is_empty());
        assert_eq!(grid.as_slice(), gold.as_slice(), "recovery is exact");
    }

    #[test]
    fn observed_runs_self_validate_on_every_backend() {
        // The acceptance contract of the observability layer: an
        // instrumented pass yields measured counters exactly equal to
        // the analytic perf model (Proxy::observed errors otherwise),
        // and the Chrome export is valid JSON.
        let ds = dataset();
        for backend in Backend::all() {
            let proxy = Proxy::new(backend, ds.obs.clone()).unwrap();
            let plan = proxy.plan(&ds.uvw).unwrap();
            let (grid, report, trace) = proxy
                .grid_observed(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
                .unwrap();
            assert!(grid.power() > 0.0);
            let analytic = gridder_counts(&plan.items, ds.obs.subgrid_size);
            assert_eq!(report.effective_counts(), analytic, "{backend:?} gridding");
            assert_eq!(trace.metrics.pass, "gridding");
            assert_eq!(trace.metrics.planned_items, 0, "plan made outside session");
            let json = idg_obs::chrome_trace_json(&trace);
            idg_obs::validate_json(&json).unwrap_or_else(|e| panic!("{backend:?}: {e}"));

            let (_, dreport, dtrace) = proxy
                .degrid_observed(&plan, &grid, &ds.uvw, &ds.aterms)
                .unwrap();
            let danalytic = degridder_counts(&plan.items, ds.obs.subgrid_size);
            assert_eq!(
                dreport.effective_counts(),
                danalytic,
                "{backend:?} degridding"
            );
            assert_eq!(dtrace.metrics.subgrids_split, plan.nr_subgrids() as u64);
        }
    }

    #[test]
    fn observed_gpu_trace_has_one_stage_span_per_job() {
        let ds = dataset();
        let mut proxy = Proxy::new(Backend::GpuPascal, ds.obs.clone()).unwrap();
        proxy.work_group_size = 8;
        let plan = proxy.plan(&ds.uvw).unwrap();
        let (_, _, trace) = proxy
            .grid_observed(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap();
        let nr_jobs = plan.work_groups(8).count();
        assert!(nr_jobs > 1);
        for job in 0..nr_jobs as u32 {
            let stages = trace
                .spans
                .iter()
                .filter(|s| s.cat == "stage" && s.job == Some(job))
                .count();
            assert_eq!(stages, 3, "HtoD/Compute/DtoH for job {job}");
        }
        // the session-level pass span is present exactly once
        assert_eq!(trace.spans.iter().filter(|s| s.cat == "pass").count(), 1);
    }

    #[test]
    fn unobserved_runs_attach_no_metrics() {
        // Backward compatibility: the default path never records.
        let ds = dataset();
        let proxy = Proxy::new(Backend::CpuOptimized, ds.obs.clone()).unwrap();
        let plan = proxy.plan(&ds.uvw).unwrap();
        let (_, report) = proxy
            .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap();
        assert!(report.metrics.is_none());
        assert_eq!(report.effective_counts(), report.counts);
    }

    #[test]
    fn observed_fallback_run_counts_fallback_jobs_and_skips_validation() {
        use idg_gpusim::{FaultKind, TargetedFault};
        use idg_types::FaultSite;

        let ds = dataset();
        let mut proxy = Proxy::new(Backend::GpuPascal, ds.obs.clone()).unwrap();
        proxy.work_group_size = 4;
        let proxy = proxy.with_faults(FaultConfig::targeted(vec![TargetedFault {
            job: 1,
            attempt: 0,
            site: FaultSite::Alloc,
            kind: FaultKind::OutOfMemory,
        }]));
        let plan = proxy.plan(&ds.uvw).unwrap();
        let (_, report, trace) = proxy
            .grid_observed(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap();
        assert_eq!(report.fallback_jobs.len(), 1);
        assert_eq!(trace.metrics.fallback_jobs, 1);
        // every visibility was gridded exactly once in the end — the
        // failed job's by the CPU fallback, the rest on the device
        let analytic = gridder_counts(&plan.items, ds.obs.subgrid_size);
        assert_eq!(trace.metrics.gridder.visibilities, analytic.visibilities);
    }

    #[test]
    fn second_pass_reuses_the_kernel_cache_bit_identically() {
        // The tables built by the first pass serve every later one: the
        // second gridding pass reports only cache hits, and its grid is
        // bit-identical to the first (cached tables hold the very same
        // values the cold path computed).
        let ds = dataset();
        let proxy = Proxy::new(Backend::CpuOptimized, ds.obs.clone()).unwrap();
        let plan = proxy.plan(&ds.uvw).unwrap();

        let (first, _, trace1) = proxy
            .grid_observed(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap();
        assert_eq!(trace1.metrics.cache_misses, 2, "cold pass builds tables");
        assert_eq!(trace1.metrics.cache_hits, 0);

        let (second, _, trace2) = proxy
            .grid_observed(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap();
        assert_eq!(trace2.metrics.cache_hits, 2, "warm pass reuses tables");
        assert_eq!(trace2.metrics.cache_misses, 0);
        assert_eq!(first.as_slice(), second.as_slice());

        // the cache itself agrees with the per-session counters
        assert_eq!(proxy.kernel_cache().misses(), 2);
        assert_eq!(proxy.kernel_cache().hits(), 2);
    }

    #[test]
    fn gpu_passes_share_the_proxy_cache_across_executors() {
        // Each grid() call builds a fresh GpuExecutor, but the cache is
        // the proxy's: the second pass is all hits.
        let ds = dataset();
        let mut proxy = Proxy::new(Backend::GpuPascal, ds.obs.clone()).unwrap();
        proxy.work_group_size = 8;
        let plan = proxy.plan(&ds.uvw).unwrap();
        let jobs = plan.work_groups(8).count() as u64;
        assert!(jobs > 1);

        let (first, _, trace1) = proxy
            .grid_observed(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap();
        assert_eq!(trace1.metrics.cache_misses, 2, "one build per table kind");
        assert_eq!(trace1.metrics.cache_hits, 2 * jobs - 2);

        let (second, _, trace2) = proxy
            .grid_observed(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap();
        assert_eq!(trace2.metrics.cache_misses, 0);
        assert_eq!(trace2.metrics.cache_hits, 2 * jobs);
        assert_eq!(first.as_slice(), second.as_slice());
    }

    #[test]
    fn clean_fleet_passes_match_the_single_device_backend_bit_identically() {
        let ds = dataset();
        let mut single = Proxy::new(Backend::GpuPascal, ds.obs.clone()).unwrap();
        single.work_group_size = 4;
        let plan = single.plan(&ds.uvw).unwrap();
        let (gold_grid, gold_report) = single
            .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap();
        let (gold_vis, _) = single
            .degrid(&plan, &gold_grid, &ds.uvw, &ds.aterms)
            .unwrap();
        assert!(gold_report.fleet.is_none(), "single device: no fleet stats");

        let mut proxy = Proxy::new(Backend::GpuPascal, ds.obs.clone()).unwrap();
        proxy.work_group_size = 4;
        let proxy = proxy.with_fleet(3);
        let (grid, report) = proxy
            .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap();
        assert_eq!(grid.as_slice(), gold_grid.as_slice(), "bit-identical merge");
        let stats = report.fleet.as_ref().unwrap();
        assert_eq!(stats.nr_devices, 3);
        assert_eq!(stats.per_device.len(), 3);
        assert_eq!(stats.breaker_trips, 0);
        assert_eq!(stats.redispatched_jobs, 0);
        assert!(
            report.total_seconds < gold_report.total_seconds,
            "three devices beat one: {} vs {}",
            report.total_seconds,
            gold_report.total_seconds
        );
        assert!(report.to_string().contains("3 devices"));

        let (vis, dreport) = proxy.degrid(&plan, &grid, &ds.uvw, &ds.aterms).unwrap();
        assert_eq!(vis, gold_vis, "fleet degridding matches one device");
        assert!(dreport.fleet.is_some());
    }

    #[test]
    fn observed_clean_fleet_runs_self_validate() {
        // A fault-free fleet keeps the per-job kernel/cache cadence of
        // the single-device path, so the self-validation stays armed.
        let ds = dataset();
        let mut proxy = Proxy::new(Backend::GpuPascal, ds.obs.clone()).unwrap();
        proxy.work_group_size = 4;
        let proxy = proxy.with_fleet(2);
        let plan = proxy.plan(&ds.uvw).unwrap();
        let (grid, report, trace) = proxy
            .grid_observed(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap();
        assert!(grid.power() > 0.0);
        let analytic = gridder_counts(&plan.items, ds.obs.subgrid_size);
        assert_eq!(report.effective_counts(), analytic);
        assert_eq!(trace.metrics.breaker_trips, 0);
    }

    #[test]
    fn fleet_absorbs_a_lemon_device_without_cpu_fallback() {
        use idg_gpusim::BreakerConfig;

        let ds = dataset();
        let mut gold_proxy = Proxy::new(Backend::GpuPascal, ds.obs.clone()).unwrap();
        gold_proxy.work_group_size = 1;
        let plan = gold_proxy.plan(&ds.uvw).unwrap();
        let (gold, _) = gold_proxy
            .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap();

        let lemon = FaultConfig {
            seed: 8,
            transfer_corruption_rate: 0.25,
            kernel_fault_rate: 0.2,
            stall_rate: 0.1,
            ..FaultConfig::default()
        };
        let mut proxy = Proxy::new(Backend::GpuPascal, ds.obs.clone()).unwrap();
        proxy.work_group_size = 1;
        let proxy = proxy.with_fleet_config(FleetConfig {
            nr_devices: 4,
            member_faults: vec![(1, lemon)],
            breaker: Some(BreakerConfig {
                window: 4,
                trip_unhealthy: 2,
                cooldown_seconds: 0.5,
                half_open_probes: 2,
            }),
        });
        let (grid, report) = proxy
            .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap();
        assert!(report.fallback_jobs.is_empty(), "peers absorb the lemon");
        let stats = report.fleet.as_ref().unwrap();
        assert!(stats.breaker_trips > 0, "the lemon trips its breaker");
        assert!(stats.redispatched_jobs > 0, "its jobs move to peers");
        assert_eq!(grid.as_slice(), gold.as_slice(), "still bit-identical");
    }

    #[test]
    fn fleet_member_fault_index_out_of_range_is_rejected() {
        let ds = dataset();
        let proxy = Proxy::new(Backend::GpuPascal, ds.obs.clone())
            .unwrap()
            .with_fleet_config(FleetConfig {
                nr_devices: 2,
                member_faults: vec![(5, FaultConfig::default())],
                breaker: None,
            });
        let plan = proxy.plan(&ds.uvw).unwrap();
        assert!(matches!(
            proxy.grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms),
            Err(IdgError::InvalidParameter(msg)) if msg.contains("out of range")
        ));
    }

    #[test]
    fn proxy_validates_observation() {
        let bad = Observation {
            nr_stations: 1,
            ..dataset().obs
        };
        assert!(Proxy::new(Backend::CpuOptimized, bad).is_err());
    }
}
