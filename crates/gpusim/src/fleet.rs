//! Multi-device fleet execution: health-gated dispatch, circuit
//! breakers, and graceful OOM degradation over N simulated devices.
//!
//! The [`FleetExecutor`] partitions a pass's work groups across its
//! member devices round-robin (job `j` prefers device `j mod N`) and
//! runs each job through the same job engine as the single-device
//! [`crate::GpuExecutor`] — only the dispatch loop differs. On top of
//! it the fleet layers the robustness the single executor lacks:
//!
//! - **Health-aware dispatch.** Every device carries a
//!   [`DeviceHealth`] tracker; a device whose breaker is `Open`
//!   admits nothing, so the jobs that would have preferred it flow to
//!   healthy peers — re-dispatch *before* CPU fallback. A job that
//!   fails persistently on one device re-enters the queue and is
//!   offered to the devices that have not yet rejected it.
//! - **Graceful OOM degradation.** Device memory pressure walks a
//!   ladder instead of failing the pass: full batches with triple
//!   buffering → halved staging batches → a single buffer set. Each
//!   rung shrinks the modeled reservation; only a device that cannot
//!   fit even the smallest rung is declared dead. Injected allocation
//!   faults ([`IdgError::is_degradable`]) take the same ladder and
//!   then *resume the job's retry loop* past the faulted attempt.
//! - **Deterministic order-preserving merge.** Jobs may finish on any
//!   device in any order, but the engine commits them strictly in
//!   global job order, which makes a fleet run bit-identical to the
//!   sequential single-device reference whatever the fault schedule
//!   did to the scheduling.
//!
//! Everything is measured on the modeled [`crate::PipelineSim`] clocks
//! (per-device); no wall time enters any decision, so a chaos run
//! with a given seed and fleet shape replays byte-identically.

use crate::device::Device;
use crate::engine::{DeviceSlot, JobEngine, JobRun, Pass, RunReport, MAX_DEGRADATION_LEVEL};
use crate::fault::{FaultConfig, RetryPolicy};
use crate::health::{BreakerConfig, DeviceHealth, JobOutcome};
use idg_kernels::{KernelCache, KernelData};
use idg_plan::Plan;
use idg_types::{Grid, IdgError, Visibility};
use std::collections::VecDeque;
use std::sync::Arc;

/// One device of the fleet plus its (optional) fault schedule.
///
/// Heterogeneous fleets are expected: members may mix architectures
/// and fault configurations (the "lemon" of a chaos run is simply a
/// member with a much higher fault rate than its peers).
#[derive(Clone, Debug)]
pub struct FleetMember {
    /// The device model.
    pub device: Device,
    /// Fault-injection schedule for this device (None = fault-free).
    pub faults: Option<FaultConfig>,
}

/// Drives gridding / degridding passes across a fleet of modeled
/// devices (see the module docs for the dispatch and degradation
/// semantics).
pub struct FleetExecutor {
    /// The member devices with their fault schedules.
    pub members: Vec<FleetMember>,
    /// Work items per work group (kernel launch) at full strength.
    pub work_group_size: usize,
    /// Retry policy for transient device faults (shared by members).
    pub retry: RetryPolicy,
    /// Circuit-breaker tuning (shared by members).
    pub breaker: BreakerConfig,
    /// Pass-level kernel cache, shared with the owning proxy.
    pub cache: Arc<KernelCache>,
}

/// Walk `slot` down the OOM ladder from rung `from` until its
/// reservation fits, counting every rung below the full configuration
/// as a degradation step. A device that exhausts the ladder is dead.
fn walk_ladder(engine: &mut JobEngine<'_, '_>, slot: &mut DeviceSlot, from: usize) -> bool {
    for level in from..=MAX_DEGRADATION_LEVEL {
        if level > 0 {
            engine.report.degradation_steps += 1;
            idg_obs::add_degradation_steps(1);
        }
        if engine.reserve(slot, level).is_ok() {
            return true;
        }
    }
    slot.release();
    slot.alive = false;
    false
}

impl FleetExecutor {
    /// Create a fleet from explicit members. A zero group size is
    /// clamped to one, as in the single-device executor.
    pub fn new(members: Vec<FleetMember>, work_group_size: usize) -> Self {
        Self {
            members,
            work_group_size: work_group_size.max(1),
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            cache: Arc::new(KernelCache::new()),
        }
    }

    /// A homogeneous fleet: `nr_devices` fault-free clones of `device`.
    pub fn uniform(device: Device, nr_devices: usize, work_group_size: usize) -> Self {
        let members = (0..nr_devices.max(1))
            .map(|_| FleetMember {
                device: device.clone(),
                faults: None,
            })
            .collect();
        Self::new(members, work_group_size)
    }

    /// Attach a fault schedule to one member (e.g. the chaos lemon).
    pub fn with_member_faults(mut self, member: usize, faults: FaultConfig) -> Self {
        if let Some(m) = self.members.get_mut(member) {
            m.faults = Some(faults);
        }
        self
    }

    /// Override the circuit-breaker tuning.
    pub fn with_breaker(mut self, breaker: BreakerConfig) -> Self {
        self.breaker = breaker;
        self
    }

    /// Override the retry policy for transient faults.
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Share a pass-level kernel cache (normally the proxy's).
    pub fn with_cache(mut self, cache: Arc<KernelCache>) -> Self {
        self.cache = cache;
        self
    }

    /// Choose a device for `job`: the first admitting device in
    /// round-robin order from the job's preferred owner, or — when
    /// every eligible breaker is `Open` — the device whose cooldown
    /// expires first, with the wait modeled into the job's release
    /// time. `None` means no device can ever take the job.
    fn choose_device(
        slots: &[DeviceSlot],
        health: &mut [DeviceHealth],
        job: usize,
        tried: &[usize],
    ) -> Option<(usize, f64)> {
        let n = slots.len();
        let eligible = |d: usize| slots[d].alive && !tried.contains(&d);
        for k in 0..n {
            let d = (job + k) % n;
            if eligible(d) && health[d].admit(slots[d].pipeline.makespan()) {
                return Some((d, 0.0));
            }
        }
        // every eligible device refused: wait out the earliest cooldown
        let (d, t) = (0..n)
            .filter(|&d| eligible(d))
            .filter_map(|d| health[d].cooldown_expiry().map(|t| (d, t)))
            .fold(None, |best: Option<(usize, f64)>, (d, t)| match best {
                Some((_, bt)) if bt <= t => best,
                _ => Some((d, t)),
            })?;
        // At t the breaker half-opens and must admit a probe; a refusal
        // here would mean the state machine deadlocked.
        assert!(
            health[d].admit(t),
            "breaker refused its own cooldown expiry"
        );
        Some((d, t))
    }

    /// Run one pass (see [`Pass`]) across the fleet.
    ///
    /// Jobs the whole fleet failed are reported in
    /// [`RunReport::failed_jobs`]; their output is absent from the
    /// commit target, which is otherwise **bit-identical** to a
    /// fault-free single-device pass over the completed jobs.
    pub fn run(
        &self,
        data: &KernelData<'_>,
        plan: &Plan,
        pass: &mut Pass<'_>,
    ) -> Result<RunReport, IdgError> {
        if self.members.is_empty() {
            return Err(IdgError::InvalidParameter(
                "a fleet needs at least one device".into(),
            ));
        }
        self.breaker.validate()?;
        let mut engine = JobEngine::new(
            data,
            plan,
            pass,
            self.work_group_size,
            &self.cache,
            self.retry,
        );
        // walk each device down the ladder until its reservation fits
        // (a device that cannot fit even one buffer set starts dead)
        let mut slots = Vec::with_capacity(self.members.len());
        let mut health = Vec::with_capacity(self.members.len());
        for member in &self.members {
            let mut slot = DeviceSlot::new(member.device.clone(), member.faults.clone());
            walk_ladder(&mut engine, &mut slot, 0);
            slots.push(slot);
            health.push(DeviceHealth::new(self.breaker)?);
        }

        let nr_jobs = engine.nr_jobs();
        let nr_members = slots.len();
        // Each job may be offered to every device once, plus ladder
        // headroom; the cap is a deadlock backstop, not a tunable.
        let dispatch_cap = (2 * nr_members).max(4) as u32;
        let mut queue: VecDeque<usize> = (0..nr_jobs).collect();
        let mut tried: Vec<Vec<usize>> = vec![Vec::new(); nr_jobs];
        let mut dispatches: Vec<u32> = vec![0; nr_jobs];
        let mut attempts_total: Vec<u32> = vec![0; nr_jobs];
        let mut last_error: Vec<Option<IdgError>> = vec![None; nr_jobs];

        while let Some(job) = queue.pop_front() {
            let eligible = Self::choose_device(&slots, &mut health, job, &tried[job]);
            let exhausted = dispatches[job] >= dispatch_cap;
            let Some((d, wait_until)) = eligible.filter(|_| !exhausted) else {
                let error = last_error[job].take().unwrap_or(IdgError::Internal(
                    "no fleet device available for job".to_string(),
                ));
                engine.fail(job, error, attempts_total[job])?;
                continue;
            };
            dispatches[job] += 1;
            if d != job % nr_members || dispatches[job] > 1 {
                engine.report.redispatched_jobs += 1;
                idg_obs::add_redispatched_jobs(1);
            }

            // Ladder loop: an OOM-degraded device resumes the same job
            // past the faulted attempt instead of re-drawing it.
            let mut resume = (0u32, wait_until);
            loop {
                let slot = &mut slots[d];
                let run = engine.execute(slot, job, resume)?;
                let now = slot.pipeline.makespan();
                match run {
                    JobRun::Done { attempts } => {
                        attempts_total[job] += attempts - resume.0;
                        health[d].record_outcome(JobOutcome::classify(attempts - 1, None), now);
                        break;
                    }
                    JobRun::Failed { error, attempts } => {
                        attempts_total[job] += attempts - resume.0;
                        let next_rung = slot.level + 1;
                        if error.is_degradable() && walk_ladder(&mut engine, slot, next_rung) {
                            resume = (attempts, resume.1);
                            continue;
                        }
                        health[d].record_outcome(JobOutcome::Failed, now);
                        last_error[job] = Some(error);
                        tried[job].push(d);
                        queue.push_back(job);
                        break;
                    }
                }
            }
        }
        for (slot, h) in slots.iter_mut().zip(&health) {
            slot.breaker_trips = h.trips();
        }
        engine.finish(slots)
    }

    /// Run a full gridding pass across the fleet: visibilities → grid.
    pub fn grid(
        &self,
        data: &KernelData<'_>,
        plan: &Plan,
    ) -> Result<(Grid<f32>, RunReport), IdgError> {
        let mut grid = Grid::<f32>::new(plan.grid_size());
        let report = self.run(data, plan, &mut Pass::Grid(&mut grid))?;
        Ok((grid, report))
    }

    /// Run a full degridding pass across the fleet: grid → predicted
    /// visibilities (fleet-failed jobs' slots left zero).
    pub fn degrid(
        &self,
        data: &KernelData<'_>,
        plan: &Plan,
        grid: &Grid<f32>,
    ) -> Result<(Vec<Visibility<f32>>, RunReport), IdgError> {
        let mut out = Default::default();
        let report = self.run(data, plan, &mut Pass::Degrid(grid, &mut out))?;
        Ok((out.vis, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::DeferredVis;
    use crate::executor::GpuExecutor;
    use crate::fault::TargetedFault;
    use crate::fault::{FaultConfig, FaultKind};
    use idg_telescope::{Dataset, IdentityATerm, Layout, SkyModel};
    use idg_types::{FaultSite, Observation};

    fn dataset() -> Dataset {
        let obs = Observation::builder()
            .stations(6)
            .timesteps(64)
            .channels(8, 150e6, 1e6)
            .grid_size(256)
            .subgrid_size(16)
            .kernel_size(5)
            .aterm_interval(64)
            .image_size(0.05)
            .build()
            .unwrap();
        let layout = Layout::uniform(6, 900.0, 51);
        let sky = SkyModel::random(&obs, 4, 0.6, 53);
        Dataset::simulate(obs, &layout, sky, &IdentityATerm)
    }

    fn kernel_data<'a>(ds: &'a Dataset, taper: &'a [f32]) -> KernelData<'a> {
        KernelData {
            obs: &ds.obs,
            uvw: &ds.uvw,
            visibilities: &ds.visibilities,
            aterms: &ds.aterms,
            taper,
        }
    }

    fn assert_bit_identical(a: &Grid<f32>, b: &Grid<f32>) {
        assert_eq!(a.as_slice().len(), b.as_slice().len());
        for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
            assert!(
                x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                "grids diverge at {i}: {x:?} vs {y:?}"
            );
        }
    }

    /// A chronically flaky device: roughly half of all attempts fault
    /// somewhere in the HtoD → kernel → DtoH chain.
    fn lemon_faults(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            transfer_corruption_rate: 0.25,
            kernel_fault_rate: 0.2,
            stall_rate: 0.1,
            ..FaultConfig::default()
        }
    }

    /// A breaker tuned for short test passes: two unhealthy outcomes
    /// in a window of four trip it.
    fn test_breaker() -> BreakerConfig {
        BreakerConfig {
            window: 4,
            trip_unhealthy: 2,
            cooldown_seconds: 0.5,
            half_open_probes: 2,
        }
    }

    /// Run one pass shape through `run`, returning its output as raw
    /// bits plus the committed item ranges.
    fn pass_bits(
        shape: &str,
        model: &Grid<f32>,
        run: &dyn Fn(&mut Pass<'_>) -> RunReport,
    ) -> (Vec<u32>, Vec<std::ops::Range<usize>>, RunReport) {
        let bits = |c: &[idg_types::Cf32]| -> Vec<u32> {
            c.iter()
                .flat_map(|c| [c.re.to_bits(), c.im.to_bits()])
                .collect()
        };
        match shape {
            "grid" => {
                let mut grid = Grid::<f32>::new(model.size());
                let report = run(&mut Pass::Grid(&mut grid));
                (bits(grid.as_slice()), Vec::new(), report)
            }
            "grid_deferred" => {
                let mut pending = Vec::new();
                let report = run(&mut Pass::GridDeferred(&mut pending));
                let out = pending.iter().flat_map(|(_, s)| bits(s.as_slice()));
                let ranges = pending.iter().map(|(r, _)| r.clone()).collect();
                (out.collect(), ranges, report)
            }
            _ => {
                let mut out = DeferredVis::default();
                let report = run(&mut Pass::Degrid(model, &mut out));
                let vis = out.vis.iter().flat_map(|v| bits(&v.pols));
                (vis.collect(), out.ranges, report)
            }
        }
    }

    #[test]
    fn single_member_fleet_matches_the_single_device_executor() {
        let ds = dataset();
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        let taper = vec![1.0f32; ds.obs.subgrid_size * ds.obs.subgrid_size];
        let data = kernel_data(&ds, &taper);

        let single = GpuExecutor::new(Device::pascal(), 4);
        let (gold, gold_report) = single.grid(&data, &plan).unwrap();
        let fleet = FleetExecutor::uniform(Device::pascal(), 1, 4);
        let (grid, report) = fleet.grid(&data, &plan).unwrap();

        assert_bit_identical(&grid, &gold);
        assert!(report.complete());
        assert_eq!(report.counts.visibilities, gold_report.counts.visibilities);
        assert!((report.makespan - gold_report.makespan).abs() < 1e-12);
        assert_eq!(report.breaker_trips, 0);
        assert_eq!(report.redispatched_jobs, 0);
        assert_eq!(report.per_device.len(), 1);
        assert_eq!(
            report.per_device[0].jobs_completed,
            plan.work_groups(4).count()
        );

        // every entry point models the same pipeline on one device,
        // whichever dispatch loop drives it (`degrid` is the degrid
        // pass without its ranges, so it shares the last shape)
        for shape in ["grid", "grid_deferred", "degrid"] {
            let (gold_out, gold_ranges, g) =
                pass_bits(shape, &gold, &|p| single.run(&data, &plan, p).unwrap());
            let (out, ranges, f) =
                pass_bits(shape, &gold, &|p| fleet.run(&data, &plan, p).unwrap());
            assert!(out == gold_out, "{shape}: output bits differ");
            assert_eq!(ranges, gold_ranges, "{shape}");
            assert_eq!(f.counts, g.counts, "{shape}");
            for (what, x, y) in [
                ("makespan", f.makespan, g.makespan),
                ("adder_seconds", f.adder_seconds, g.adder_seconds),
                ("dtoh_seconds", f.dtoh_seconds, g.dtoh_seconds),
            ] {
                assert!((x - y).abs() < 1e-12, "{shape} {what}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn clean_multi_device_gridding_is_bit_identical_to_one_device() {
        let ds = dataset();
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        let taper = vec![1.0f32; ds.obs.subgrid_size * ds.obs.subgrid_size];
        let data = kernel_data(&ds, &taper);

        let single = GpuExecutor::new(Device::pascal(), 4);
        let (gold, gold_report) = single.grid(&data, &plan).unwrap();
        let fleet = FleetExecutor::uniform(Device::pascal(), 3, 4);
        let (grid, report) = fleet.grid(&data, &plan).unwrap();

        // f32 accumulation order is pinned by the ordered commit, so
        // splitting work across devices must not move a single bit
        assert_bit_identical(&grid, &gold);
        assert!(report.complete());
        // jobs spread round-robin across all members
        assert!(report.per_device.iter().all(|d| d.jobs_completed > 0));
        // devices overlap in (modeled) time: the fleet finishes faster
        assert!(report.makespan < gold_report.makespan);
    }

    #[test]
    fn clean_multi_device_degridding_matches_one_device() {
        let ds = dataset();
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        let taper = vec![1.0f32; ds.obs.subgrid_size * ds.obs.subgrid_size];
        let data = kernel_data(&ds, &taper);
        let single = GpuExecutor::new(Device::pascal(), 4);
        let (grid, _) = single.grid(&data, &plan).unwrap();

        let (gold, _) = single.degrid(&data, &plan, &grid).unwrap();
        let fleet = FleetExecutor::uniform(Device::pascal(), 3, 4);
        let (vis, report) = fleet.degrid(&data, &plan, &grid).unwrap();

        assert!(report.complete());
        assert_eq!(vis.len(), gold.len());
        for (a, b) in vis.iter().zip(&gold) {
            for (pa, pb) in a.pols.iter().zip(&b.pols) {
                assert_eq!(pa.re.to_bits(), pb.re.to_bits());
                assert_eq!(pa.im.to_bits(), pb.im.to_bits());
            }
        }
    }

    #[test]
    fn lemon_device_trips_its_breaker_and_the_fleet_still_delivers() {
        let ds = dataset();
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        let taper = vec![1.0f32; ds.obs.subgrid_size * ds.obs.subgrid_size];
        let data = kernel_data(&ds, &taper);

        let (gold, _) = GpuExecutor::new(Device::pascal(), 1)
            .grid(&data, &plan)
            .unwrap();
        let fleet = FleetExecutor::uniform(Device::pascal(), 4, 1)
            .with_member_faults(1, lemon_faults(8))
            .with_breaker(test_breaker());
        let (grid, report) = fleet.grid(&data, &plan).unwrap();

        assert_bit_identical(&grid, &gold);
        assert!(report.complete(), "failures: {:?}", report.failed_jobs);
        assert!(
            report.breaker_trips > 0,
            "a ~35% fault rate must trip the lemon's breaker"
        );
        assert_eq!(report.per_device[1].breaker_trips, report.breaker_trips);
        assert!(
            report.redispatched_jobs > 0,
            "tripped device's jobs must flow to peers"
        );
    }

    #[test]
    fn targeted_oom_takes_the_degradation_ladder_not_cpu_fallback() {
        let ds = dataset();
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        let taper = vec![1.0f32; ds.obs.subgrid_size * ds.obs.subgrid_size];
        let data = kernel_data(&ds, &taper);

        let (gold, _) = GpuExecutor::new(Device::pascal(), 4)
            .grid(&data, &plan)
            .unwrap();
        let oom = FaultConfig::targeted(vec![TargetedFault {
            job: 0,
            attempt: 0,
            site: FaultSite::Alloc,
            kind: FaultKind::OutOfMemory,
        }]);
        let fleet = FleetExecutor::uniform(Device::pascal(), 2, 4).with_member_faults(0, oom);
        let (grid, report) = fleet.grid(&data, &plan).unwrap();

        assert_bit_identical(&grid, &gold);
        assert!(report.complete(), "OOM must degrade, not fail the job");
        assert!(report.degradation_steps >= 1);
        assert!(report.per_device[0].degradation_level >= 1);
        assert!(report.per_device[0].alive);
        // the degraded job resumed on the same device: no re-dispatch
        assert_eq!(report.redispatched_jobs, 0);
    }

    #[test]
    fn memory_starved_member_starts_on_a_lower_rung() {
        let ds = dataset();
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        let taper = vec![1.0f32; ds.obs.subgrid_size * ds.obs.subgrid_size];
        let data = kernel_data(&ds, &taper);

        let (gold, _) = GpuExecutor::new(Device::pascal(), 4)
            .grid(&data, &plan)
            .unwrap();
        // Enough for half-batch buffers (~184 kB at wgs 4) but not the
        // full-strength buffer sets (~369 kB), let alone the grid.
        let mut starved = Device::pascal();
        starved.arch.mem_size_gb = Some(0.0003);
        let fleet = FleetExecutor::new(
            vec![
                FleetMember {
                    device: starved,
                    faults: None,
                },
                FleetMember {
                    device: Device::pascal(),
                    faults: None,
                },
            ],
            4,
        );
        let (grid, report) = fleet.grid(&data, &plan).unwrap();
        assert_bit_identical(&grid, &gold);
        assert!(report.complete());
        assert!(report.degradation_steps >= 1);
        assert!(report.per_device[0].degradation_level >= 1);
    }

    #[test]
    fn empty_fleet_is_rejected() {
        let ds = dataset();
        let plan = Plan::create(&ds.obs, &ds.uvw).unwrap();
        let taper = vec![1.0f32; ds.obs.subgrid_size * ds.obs.subgrid_size];
        let data = kernel_data(&ds, &taper);
        let fleet = FleetExecutor::new(Vec::new(), 4);
        assert!(matches!(
            fleet.grid(&data, &plan),
            Err(IdgError::InvalidParameter(_))
        ));
    }
}
