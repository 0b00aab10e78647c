//! The job engine: the one Sec. V-C pipeline both executors drive.
//!
//! A pass is a sequence of jobs (work groups). Every job flows
//! HtoD → compute → DtoH on one modeled device through the fault/retry
//! loop, and its output is handed to the pass's commit step in global
//! job order. The engine is parameterised by the [`Pass`]:
//!
//! * the **direction** fixes the operation counts, the staged
//!   payloads, the timing terms and the kernels — gridder → subgrid
//!   FFT → adder, or splitter → inverse subgrid FFT → degridder;
//! * the **commit residency** fixes where the adder runs: on the
//!   device when the pass may keep its grid resident and the grid fits
//!   (option (1) of Sec. V-C e), otherwise on the host, with subgrids
//!   streaming back over the DtoH engine (option (2)) — either added
//!   by the executor or, for a deferred pass, by the caller's commit.
//!
//! Jobs may finish out of order (a fleet re-queues failures), so a
//! finished job's output is parked only while an earlier job is still
//! unresolved; a single device therefore holds one job's subgrids at a
//! time. Committing in job order keeps the f32 accumulation order —
//! and every output bit — that of the sequential single-device pass.
//!
//! [`crate::GpuExecutor`] and [`crate::FleetExecutor`] differ only in
//! their dispatch loop: which device runs which job, when.
//!
//! ## Fault tolerance
//!
//! When a device carries a [`FaultConfig`], every job runs through a
//! retry loop:
//!
//! * transfer corruption is detected by *real* checksums — the engine
//!   stages a copy of the payload, the injector flips one bit, and the
//!   FNV-1a hashes disagree;
//! * transient faults (corruption, kernel faults, stream stalls)
//!   re-enqueue the job's whole HtoD → kernel → DtoH chain, delayed by
//!   the [`RetryPolicy`]'s capped exponential backoff — both the faulted
//!   attempts and the backoff gaps are modeled into the makespan;
//! * persistent faults (device OOM, or a transient fault that exhausts
//!   `max_attempts`) land the job in [`RunReport::failed_jobs`] with
//!   its classified [`IdgError`]; the pass itself still succeeds, and
//!   the proxy layer re-executes exactly those jobs on the CPU.

use crate::device::Device;
use crate::fault::{checksum_bytes, FaultConfig, FaultInjector, FaultKind, RetryPolicy};
use crate::kernels::{degridder_gpu, gridder_gpu};
use crate::stream::{Engine, FaultPoint, OpStatus, PipelineSim, TraceEntry};
use crate::timing::{adder_time, kernel_time, subgrid_fft_time, transfer_time};
use idg_fft::Direction;
use idg_kernels::{
    add_subgrids, fft_subgrids, split_subgrids, FftNorm, KernelCache, KernelData, SubgridArray,
};
use idg_perf::{degridder_counts, gridder_counts, EnergyModel, OpCounts};
use idg_plan::{Plan, WorkItem};
use idg_types::{FaultSite, Grid, IdgError, Visibility};
use std::ops::Range;

/// Effective bandwidth of a host-side adder or commit: subgrids stream
/// back over PCI-e and the host memory system (~40 GB/s) adds them.
pub const HOST_ADDER_BW: f64 = 40e9;

/// Deepest rung of the OOM degradation ladder (see [`level_shape`]).
pub(crate) const MAX_DEGRADATION_LEVEL: usize = 2;

/// The staging shape at one degradation-ladder rung: `(items staged
/// per buffer set, number of buffer sets)`.
///
/// Rung 0 is the paper's configuration (full work groups, triple
/// buffering); rung 1 halves the staged batch (jobs compute in two
/// half-chunks that fit the smaller buffers); rung 2 additionally
/// gives up the transfer/compute overlap by dropping to one buffer
/// set. The per-job *CPU fallback* rung lives above the executors, in
/// the proxy: it only engages for jobs no device completed.
fn level_shape(work_group_size: usize, level: usize) -> (usize, usize) {
    match level {
        0 => (work_group_size, 3),
        1 => (work_group_size.div_ceil(2).max(1), 3),
        _ => (work_group_size.div_ceil(2).max(1), 1),
    }
}

/// Deferred-commit payload of a gridding pass: each entry pairs a
/// `plan.items` range with the subgrids computed for it, in job order,
/// ready for the caller's single in-order adder commit.
pub type DeferredSubgrids = Vec<(Range<usize>, SubgridArray)>;

/// Output of a degridding pass: the predicted visibilities plus the
/// `plan.items` ranges the completed jobs covered, in job order. A
/// streamed caller copies each item's rows into the full observation
/// buffer in one-shot plan order, so the streamed result stays
/// bit-identical to the one-shot pass.
#[derive(Clone, Debug, Default)]
pub struct DeferredVis {
    /// `plan.items` ranges of the jobs that completed, in job order.
    pub ranges: Vec<Range<usize>>,
    /// Visibility buffer (full observation extent, zeros outside the
    /// completed items' slots).
    pub vis: Vec<Visibility<f32>>,
}

/// One executor pass: its direction and where each job's output is
/// committed.
pub enum Pass<'p> {
    /// Visibilities → `grid`. The grid is reserved on the device when
    /// it fits (atomic adder); otherwise subgrids stream back and the
    /// host adds them. Either way every job's subgrids are added in
    /// global job order — two kernel-cache lookups per job (gridder
    /// geometry, adder phasors).
    Grid(&'p mut Grid<f32>),
    /// Visibilities → subgrids, committed later by the caller on the
    /// host: the completed jobs' `(plan.items range, subgrids)` pairs
    /// are appended in job order. The grid never lives on the device —
    /// the reservation covers the buffer sets only, subgrids always
    /// stream back, and the host add is accounted by the caller.
    GridDeferred(&'p mut DeferredSubgrids),
    /// `grid` → predicted visibilities, written into the output (which
    /// is reset to the observation's extent; failed jobs' slots stay
    /// zero). The model grid stays on the host; the buffer sets are
    /// the only device reservation.
    Degrid(&'p Grid<f32>, &'p mut DeferredVis),
}

impl Pass<'_> {
    /// "gridding" or "degridding".
    pub(crate) fn name(&self) -> &'static str {
        match self {
            Pass::Degrid(..) => "degridding",
            _ => "gridding",
        }
    }
}

/// A job that failed persistently: its outputs are absent from the pass
/// result and the proxy layer may re-execute it on the CPU backend.
#[derive(Clone, Debug, PartialEq)]
pub struct JobFailure {
    /// Job (work group) index in submission order.
    pub job: usize,
    /// Index of the job's first work item in `plan.items`.
    pub first_item: usize,
    /// Number of work items the job covers.
    pub nr_items: usize,
    /// The classified error that ended the job.
    pub error: IdgError,
    /// How many attempts were made before giving up.
    pub attempts: u32,
}

/// Per-device slice of a [`RunReport`].
#[derive(Clone, Debug)]
pub struct DeviceReport {
    /// Architecture nickname (e.g. `"PASCAL"`).
    pub nickname: &'static str,
    /// Jobs whose results this device delivered.
    pub jobs_completed: usize,
    /// Transient-fault retries on this device.
    pub nr_retries: usize,
    /// Breaker trips on this device (always 0 on a single device).
    pub breaker_trips: u64,
    /// Final degradation-ladder rung (0 = full configuration).
    pub degradation_level: usize,
    /// This device's pipeline makespan, modeled seconds.
    pub makespan: f64,
    /// Whether the device was still accepting work at pass end.
    pub alive: bool,
}

/// Outcome of one executor pass, on one device or a fleet.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// "gridding" or "degridding".
    pub pass: &'static str,
    /// Aggregate gridder/degridder operation counters (successful jobs).
    pub counts: OpCounts,
    /// Modeled main-kernel busy time summed over devices, s (including
    /// faulted attempts).
    pub kernel_seconds: f64,
    /// Modeled subgrid-FFT time summed over devices, s.
    pub fft_seconds: f64,
    /// Modeled adder/splitter time summed over devices, s.
    pub adder_seconds: f64,
    /// Modeled host-to-device transfer time summed over devices, s
    /// (including faulted attempts).
    pub htod_seconds: f64,
    /// Modeled device-to-host transfer time summed over devices, s
    /// (including faulted attempts).
    pub dtoh_seconds: f64,
    /// Pipeline makespan with triple buffering — the slowest device's,
    /// s.
    pub makespan: f64,
    /// Every device's per-operation timeline (Fig. 7 material), device
    /// by device. Faulted attempts appear with `OpStatus::Faulted`;
    /// retries carry `attempt > 0`.
    pub timeline: Vec<TraceEntry>,
    /// Modeled device energy summed over devices, J.
    pub device_energy_j: f64,
    /// Modeled host (package + DRAM) energy over the makespan, J.
    pub host_energy_j: f64,
    /// Number of re-enqueued attempts across all jobs.
    pub nr_retries: usize,
    /// Total modeled backoff delay inserted before retries, s.
    pub backoff_seconds: f64,
    /// Dispatches that did not land on the job's preferred device
    /// (breaker refusals, dead devices, and post-failure re-queues).
    pub redispatched_jobs: usize,
    /// Degradation-ladder rungs taken across the fleet.
    pub degradation_steps: usize,
    /// Breaker trips summed over devices.
    pub breaker_trips: u64,
    /// Per-device breakdown.
    pub per_device: Vec<DeviceReport>,
    /// Jobs no device completed (their work is *not* in the result),
    /// in job order; empty on a fault-free pass.
    pub failed_jobs: Vec<JobFailure>,
}

impl RunReport {
    /// Achieved operation rate over kernel busy time, TOps/s — the
    /// quantity plotted in Fig. 11. Zero (not NaN) for empty passes.
    pub fn kernel_tops(&self) -> f64 {
        if self.kernel_seconds <= 0.0 {
            return 0.0;
        }
        self.counts.total_ops() as f64 / self.kernel_seconds / 1e12
    }

    /// Visibility throughput over the whole pass, MVisibilities/s — the
    /// Fig. 10 metric. Zero (not NaN) for empty passes.
    pub fn mvis_per_sec(&self) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        self.counts.visibilities as f64 / self.makespan / 1e6
    }

    /// Whether every job's outputs made it into the result.
    pub fn complete(&self) -> bool {
        self.failed_jobs.is_empty()
    }
}

/// How one trip through the fault/retry loop ended: the job either
/// completed (after `attempts` tries) or exhausted its chances on a
/// classified error.
pub(crate) enum JobRun {
    Done { attempts: u32 },
    Failed { error: IdgError, attempts: u32 },
}

/// Engine time consumed by faulted attempts plus retry bookkeeping.
#[derive(Default)]
struct RetryStats {
    nr_retries: usize,
    backoff_seconds: f64,
    htod_seconds: f64,
    kernel_seconds: f64,
    dtoh_seconds: f64,
}

/// What the retry loop asks of a job. `Stage*` return a copy of the
/// transfer payload's raw bytes (checksummed to detect injected
/// corruption); `Compute` runs the real kernels and must be idempotent
/// — a retry re-runs it from scratch.
enum JobOp {
    StageInput,
    Compute,
    StageOutput,
}

/// Run one job through the fault/retry loop. `start` is
/// `(first_attempt, not_before)`: a fleet resumes a job past an
/// OOM-degraded attempt (so the same injected fault is not re-drawn)
/// and delays jobs that waited out a breaker cooldown.
#[allow(clippy::too_many_arguments)]
fn run_job(
    pipeline: &mut PipelineSim,
    injector: Option<&FaultInjector>,
    retry: &RetryPolicy,
    stats: &mut RetryStats,
    job: usize,
    times: (f64, f64, f64),
    start: (u32, f64),
    run: &mut dyn FnMut(JobOp) -> Result<Vec<u8>, IdgError>,
) -> JobRun {
    let (t_in, t_compute, t_out) = times;
    let (mut attempt, mut not_before) = start;
    loop {
        let hard = |error: IdgError| JobRun::Failed {
            error,
            attempts: attempt + 1,
        };
        // what does the injector throw at this attempt? (sites probed
        // in chain order; DtoH only exists when the job transfers out)
        let mut fault = injector.and_then(|inj| {
            [
                FaultSite::Alloc,
                FaultSite::HtoD,
                FaultSite::Kernel,
                FaultSite::DtoH,
            ]
            .into_iter()
            .filter(|&s| s != FaultSite::DtoH || t_out > 0.0)
            .find_map(|s| inj.fault_at(job, attempt, s).map(|k| (inj, s, k)))
        });
        // transfer corruption is *detected*, never assumed: checksum a
        // staged copy of the payload, flip one bit, compare hashes
        if let Some((inj, site, FaultKind::TransferCorruption)) = fault {
            let staged = match site {
                FaultSite::HtoD => run(JobOp::StageInput),
                _ => run(JobOp::Compute).and_then(|_| run(JobOp::StageOutput)),
            };
            let mut staged = match staged {
                Ok(bytes) => bytes,
                Err(e) => return hard(e),
            };
            let want = checksum_bytes(&staged);
            inj.corrupt_bytes(&mut staged, job, attempt);
            if checksum_bytes(&staged) == want {
                fault = None; // undetectable flip: delivered as clean
            }
        }
        let (site, kind, extra) = match fault {
            None => {
                if let Err(e) = run(JobOp::Compute) {
                    return hard(e);
                }
                pipeline.submit_attempt(job, attempt, not_before, t_in, t_compute, t_out, None);
                return JobRun::Done {
                    attempts: attempt + 1,
                };
            }
            Some((inj, site, kind)) => {
                let stall = kind == FaultKind::StreamStall;
                (site, kind, if stall { inj.stall_seconds() } else { 0.0 })
            }
        };
        let engine = match site {
            FaultSite::HtoD => Engine::HtoD,
            FaultSite::Kernel => Engine::Compute,
            FaultSite::DtoH => Engine::DtoH,
            // allocation faults never reach the stream engines and
            // retrying the same allocation cannot succeed: persistent
            FaultSite::Alloc => return hard(kind.to_error(job, FaultSite::Alloc, 0.0)),
        };
        let outcome = pipeline.submit_attempt(
            job,
            attempt,
            not_before,
            t_in,
            t_compute,
            t_out,
            Some(FaultPoint {
                engine,
                extra_seconds: extra,
            }),
        );
        // the chain truncates at the faulting engine; charge the engine
        // time the faulted attempt actually held
        match engine {
            Engine::HtoD => stats.htod_seconds += t_in + extra,
            Engine::Compute => {
                stats.htod_seconds += t_in;
                stats.kernel_seconds += t_compute + extra;
            }
            Engine::DtoH => {
                stats.htod_seconds += t_in;
                stats.kernel_seconds += t_compute;
                stats.dtoh_seconds += t_out + extra;
            }
        }
        let error = kind.to_error(job, site, extra);
        attempt += 1;
        if !error.is_transient() || attempt >= retry.max_attempts {
            return JobRun::Failed {
                error,
                attempts: attempt,
            };
        }
        stats.nr_retries += 1;
        let backoff = retry.backoff_before(attempt);
        stats.backoff_seconds += backoff;
        not_before = outcome.end + backoff;
    }
}

/// One modeled device's state during a pass.
pub(crate) struct DeviceSlot {
    pub(crate) device: Device,
    injector: Option<FaultInjector>,
    pub(crate) pipeline: PipelineSim,
    /// Degradation-ladder rung (always 0 on the single-device executor).
    pub(crate) level: usize,
    reserved: u64,
    host_adder: bool,
    pub(crate) alive: bool,
    pub(crate) breaker_trips: u64,
    jobs_completed: usize,
    nr_retries: usize,
    /// Kernel breakdown per global job, for span replay.
    compute_parts: Vec<Vec<(&'static str, f64)>>,
}

impl DeviceSlot {
    /// A device with nothing reserved yet.
    pub(crate) fn new(device: Device, faults: Option<FaultConfig>) -> Self {
        Self {
            device,
            injector: faults.map(FaultInjector::new),
            pipeline: PipelineSim::new(3),
            level: 0,
            reserved: 0,
            host_adder: false,
            alive: true,
            breaker_trips: 0,
            jobs_completed: 0,
            nr_retries: 0,
            compute_parts: Vec::new(),
        }
    }

    /// Give up the device's reservation.
    pub(crate) fn release(&mut self) {
        self.device.free(self.reserved);
        self.reserved = 0;
    }
}

/// The modeled cost of one job on one device.
struct JobCost {
    counts: OpCounts,
    /// `(HtoD, Compute, DtoH)` engine times, s.
    engines: (f64, f64, f64),
    /// `[kernel, fft, adder/splitter]` stage times, s.
    stages: [f64; 3],
    /// The compute interval's kernels in execution order, for spans.
    parts: Vec<(&'static str, f64)>,
}

/// How a job resolved: done with its output (the subgrids of each
/// staged chunk, keyed by the chunk's item range within the group;
/// empty when degridding, whose visibilities land in place), or failed
/// on every device that tried it.
enum Resolved {
    Done(Vec<(Range<usize>, SubgridArray)>),
    Failed,
}

/// One pass in flight: the jobs, their commit step, and the report.
pub(crate) struct JobEngine<'e, 'p> {
    data: &'e KernelData<'e>,
    plan: &'e Plan,
    pass: &'e mut Pass<'p>,
    cache: &'e KernelCache,
    retry: RetryPolicy,
    work_group_size: usize,
    groups: Vec<&'e [WorkItem]>,
    observing: bool,
    /// Jobs resolved ahead of an unresolved earlier job.
    parked: Vec<Option<Resolved>>,
    next_commit: usize,
    pub(crate) report: RunReport,
}

impl<'e, 'p> JobEngine<'e, 'p> {
    pub(crate) fn new(
        data: &'e KernelData<'e>,
        plan: &'e Plan,
        pass: &'e mut Pass<'p>,
        work_group_size: usize,
        cache: &'e KernelCache,
        retry: RetryPolicy,
    ) -> Self {
        let groups: Vec<&[WorkItem]> = plan.work_groups(work_group_size).collect();
        if let Pass::Degrid(_, out) = pass {
            **out = DeferredVis {
                ranges: Vec::new(),
                vis: vec![Visibility::zero(); data.obs.nr_visibilities()],
            };
        }
        let report = RunReport {
            pass: pass.name(),
            ..RunReport::default()
        };
        Self {
            data,
            plan,
            pass,
            cache,
            retry,
            work_group_size,
            parked: (0..groups.len()).map(|_| None).collect(),
            groups,
            observing: idg_obs::is_active(),
            next_commit: 0,
            report,
        }
    }

    /// Number of jobs (work groups) in the pass.
    pub(crate) fn nr_jobs(&self) -> usize {
        self.groups.len()
    }

    /// Reserve the pass's device allocations at ladder rung `level`:
    /// the grid plus the rung's buffer sets when the pass may keep its
    /// grid resident and it fits, the buffer sets alone otherwise (the
    /// host adds, Sec. V-C e). Errors when even the buffer sets do not
    /// fit.
    pub(crate) fn reserve(&self, slot: &mut DeviceSlot, level: usize) -> Result<(), IdgError> {
        slot.release();
        slot.level = level;
        let (w_eff, nr_buffers) = level_shape(self.work_group_size, level);
        let n = self.plan.subgrid_size();
        let grid_bytes = (4 * self.plan.grid_size() * self.plan.grid_size() * 8) as u64;
        let subgrid_bytes = (w_eff * 4 * n * n * 8) as u64;
        let io_bytes = (w_eff * 512 * 44) as u64; // vis+uvw staging
        let buffers = nr_buffers as u64 * (subgrid_bytes + io_bytes);
        let resident = matches!(self.pass, Pass::Grid(_));
        if resident && slot.device.allocate(grid_bytes + buffers).is_ok() {
            slot.reserved = grid_bytes + buffers;
            slot.host_adder = false;
        } else {
            slot.device.allocate(buffers)?;
            slot.reserved = buffers;
            slot.host_adder = true;
        }
        slot.pipeline.set_nr_buffers(nr_buffers);
        Ok(())
    }

    /// The modeled cost of `group` on `slot`'s device.
    fn cost(&self, slot: &DeviceSlot, group: &[WorkItem]) -> JobCost {
        let dev = &slot.device;
        let n = self.plan.subgrid_size();
        let nr_chan = self.data.obs.nr_channels();
        let t_fft = subgrid_fft_time(dev, group.len(), n);
        if let Pass::Degrid(..) = self.pass {
            let counts = degridder_counts(group, n);
            let uvw_bytes = group.iter().map(|i| (i.nr_timesteps * 12) as u64).sum();
            let out_bytes = group
                .iter()
                .map(|i| (i.nr_timesteps * nr_chan * 32) as u64)
                .sum();
            let t_split = adder_time(dev, group.len(), n);
            let t_kernel = kernel_time(dev, &counts);
            return JobCost {
                counts,
                engines: (
                    transfer_time(dev, uvw_bytes),
                    t_split + t_fft + t_kernel,
                    transfer_time(dev, out_bytes),
                ),
                stages: [t_kernel, t_fft, t_split],
                parts: vec![
                    ("splitter", t_split),
                    ("subgrid_ifft", t_fft),
                    ("degridder", t_kernel),
                ],
            };
        }
        let counts = gridder_counts(group, n);
        let in_bytes = group
            .iter()
            .map(|i| (i.nr_timesteps * (nr_chan * 32 + 12)) as u64)
            .sum();
        let t_in = transfer_time(dev, in_bytes);
        let t_kernel = kernel_time(dev, &counts);
        let mut parts = vec![("gridder", t_kernel), ("subgrid_fft", t_fft)];
        if !slot.host_adder {
            // option (1): atomic adder on the device
            let t_add = adder_time(dev, group.len(), n);
            parts.push(("adder", t_add));
            return JobCost {
                counts,
                engines: (t_in, t_kernel + t_fft + t_add, 0.0),
                stages: [t_kernel, t_fft, t_add],
                parts,
            };
        }
        // option (2): subgrids stream to the host (DtoH engine), which
        // adds them while the GPU computes on — unless the pass leaves
        // the add to its caller's commit
        let subgrid_bytes = (group.len() * 4 * n * n * 8) as u64;
        let t_add = match self.pass {
            Pass::Grid(_) => 2.0 * subgrid_bytes as f64 / HOST_ADDER_BW,
            _ => 0.0,
        };
        JobCost {
            counts,
            engines: (t_in, t_kernel + t_fft, transfer_time(dev, subgrid_bytes)),
            stages: [t_kernel, t_fft, t_add],
            parts,
        }
    }

    /// Run `job` on `slot` through the fault/retry loop from `start`
    /// (see [`run_job`]). A completed job goes to the in-order commit;
    /// a failed one is *not* resolved — the dispatch loop decides
    /// whether another device or ladder rung gets it, and calls
    /// [`JobEngine::fail`] once nobody will. Errors only when the
    /// commit itself fails.
    pub(crate) fn execute(
        &mut self,
        slot: &mut DeviceSlot,
        job: usize,
        start: (u32, f64),
    ) -> Result<JobRun, IdgError> {
        let group = self.groups[job];
        let cost = self.cost(slot, group);
        if self.observing {
            slot.compute_parts.resize(self.groups.len(), Vec::new());
            slot.compute_parts[job] = cost.parts;
        }
        // a degraded rung stages the group in chunks that fit its
        // smaller buffers (one chunk at full strength)
        let (w_eff, _) = level_shape(self.work_group_size, slot.level);
        let chunks: Vec<Range<usize>> = (0..group.len())
            .step_by(w_eff)
            .map(|lo| lo..(lo + w_eff).min(group.len()))
            .collect();
        let (data, cache, n) = (self.data, self.cache, self.plan.subgrid_size());
        let (nr_time, nr_chan) = (data.obs.nr_timesteps, data.obs.nr_channels());
        let device = &slot.device;
        let pass = &mut *self.pass;
        let mut computed = Vec::new();
        let mut backend = |op: JobOp| -> Result<Vec<u8>, IdgError> {
            match (op, &mut *pass) {
                (JobOp::StageInput, Pass::Degrid(..)) => Ok(staged_uvw_bytes(data, group)),
                (JobOp::StageInput, _) => {
                    Ok(staged_vis_bytes(data.visibilities, nr_time, nr_chan, group))
                }
                (JobOp::Compute, Pass::Degrid(grid, out)) => {
                    for r in &chunks {
                        let items = &group[r.clone()];
                        let mut subgrids = SubgridArray::new(r.len(), n);
                        split_subgrids(grid, items, &mut subgrids, cache)?;
                        fft_subgrids(&mut subgrids, Direction::Inverse, FftNorm::None);
                        degridder_gpu(data, items, &subgrids, &mut out.vis, device, cache)?;
                    }
                    Ok(Vec::new())
                }
                (JobOp::Compute, _) => {
                    computed.clear();
                    for r in &chunks {
                        let mut subgrids = SubgridArray::new(r.len(), n);
                        gridder_gpu(data, &group[r.clone()], &mut subgrids, device, cache)?;
                        fft_subgrids(&mut subgrids, Direction::Forward, FftNorm::None);
                        computed.push((r.clone(), subgrids));
                    }
                    Ok(Vec::new())
                }
                (JobOp::StageOutput, Pass::Degrid(_, out)) => {
                    Ok(staged_vis_bytes(&out.vis, nr_time, nr_chan, group))
                }
                (JobOp::StageOutput, _) => Ok(computed
                    .iter()
                    .flat_map(|(_, subgrids)| staged_subgrid_bytes(subgrids))
                    .collect()),
            }
        };
        let mut stats = RetryStats::default();
        let run = run_job(
            &mut slot.pipeline,
            slot.injector.as_ref(),
            &self.retry,
            &mut stats,
            job,
            cost.engines,
            start,
            &mut backend,
        );
        slot.nr_retries += stats.nr_retries;
        let report = &mut self.report;
        report.nr_retries += stats.nr_retries;
        report.backoff_seconds += stats.backoff_seconds;
        report.htod_seconds += stats.htod_seconds;
        report.kernel_seconds += stats.kernel_seconds;
        report.dtoh_seconds += stats.dtoh_seconds;
        if let JobRun::Done { .. } = run {
            slot.jobs_completed += 1;
            report.counts.add(&cost.counts);
            report.kernel_seconds += cost.stages[0];
            report.fft_seconds += cost.stages[1];
            report.adder_seconds += cost.stages[2];
            report.htod_seconds += cost.engines.0;
            report.dtoh_seconds += cost.engines.2;
            self.resolve(job, Resolved::Done(computed))?;
        }
        Ok(run)
    }

    /// Give up on `job`: no device will complete it.
    pub(crate) fn fail(
        &mut self,
        job: usize,
        error: IdgError,
        attempts: u32,
    ) -> Result<(), IdgError> {
        self.report.failed_jobs.push(JobFailure {
            job,
            first_item: job * self.work_group_size,
            nr_items: self.groups[job].len(),
            error,
            attempts,
        });
        self.resolve(job, Resolved::Failed)
    }

    /// Park `job`'s resolution, then commit every resolved job from the
    /// commit cursor on, in job order.
    fn resolve(&mut self, job: usize, resolved: Resolved) -> Result<(), IdgError> {
        self.parked[job] = Some(resolved);
        while let Some(resolved) = self.parked.get_mut(self.next_commit).and_then(Option::take) {
            let job = self.next_commit;
            let group = self.groups[job];
            let first = job * self.work_group_size;
            match (&mut *self.pass, resolved) {
                (Pass::Grid(grid), Resolved::Done(chunks)) => {
                    for (r, subgrids) in &chunks {
                        add_subgrids(grid, &group[r.clone()], subgrids, self.cache)?;
                    }
                }
                (Pass::GridDeferred(out), Resolved::Done(chunks)) => out.extend(
                    chunks
                        .into_iter()
                        .map(|(r, subgrids)| (first + r.start..first + r.end, subgrids)),
                ),
                (Pass::Degrid(_, out), Resolved::Done(_)) => {
                    out.ranges.push(first..first + group.len());
                }
                // a faulted attempt may have written these slots before
                // its chain died — failed jobs leave zeros
                (Pass::Degrid(_, out), Resolved::Failed) => {
                    let (nr_time, nr_chan) =
                        (self.data.obs.nr_timesteps, self.data.obs.nr_channels());
                    for item in group {
                        for dt in 0..item.nr_timesteps {
                            let row =
                                (item.baseline_index * nr_time + item.time_offset + dt) * nr_chan;
                            let cols = row + item.channel_offset
                                ..row + item.channel_offset + item.nr_channels;
                            out.vis[cols].fill(Visibility::zero());
                        }
                    }
                }
                (_, Resolved::Failed) => {}
            }
            self.next_commit += 1;
        }
        Ok(())
    }

    /// Fold the devices into the report — makespans, energies, breaker
    /// totals, span replay (device `d` in lanes `4d .. 4d + 3`) — and
    /// release their reservations.
    pub(crate) fn finish(mut self, slots: Vec<DeviceSlot>) -> Result<RunReport, IdgError> {
        if self.next_commit != self.groups.len() {
            return Err(IdgError::Internal(format!(
                "pass ended with {} of {} jobs resolved",
                self.next_commit,
                self.groups.len()
            )));
        }
        let report = &mut self.report;
        report.failed_jobs.sort_by_key(|f| f.job);
        idg_obs::add_retries(report.nr_retries as u64);
        let host_arch = slots.first().map(|s| s.device.arch.clone());
        for (d, mut slot) in slots.into_iter().enumerate() {
            emit_modeled_spans(&slot.pipeline.timeline, &slot.compute_parts, 4 * d as u32);
            let makespan = slot.pipeline.makespan();
            let energy = EnergyModel::new(slot.device.arch.clone());
            let busy = slot.pipeline.compute_busy();
            report.device_energy_j += energy.device_energy(busy, 1.0)
                + energy.device_energy((makespan - busy).max(0.0), 0.0);
            report.makespan = report.makespan.max(makespan);
            report.breaker_trips += slot.breaker_trips;
            slot.release();
            report.per_device.push(DeviceReport {
                nickname: slot.device.arch.nickname,
                jobs_completed: slot.jobs_completed,
                nr_retries: slot.nr_retries,
                breaker_trips: slot.breaker_trips,
                degradation_level: slot.level,
                makespan,
                alive: slot.alive,
            });
            report.timeline.append(&mut slot.pipeline.timeline);
        }
        if let Some(arch) = host_arch {
            report.host_energy_j = EnergyModel::new(arch).host_energy(report.makespan);
        }
        Ok(self.report)
    }
}

/// Replay the pipeline timeline into the active observability session
/// as modeled spans: one `job` span per job covering all of its
/// operations, one `stage` span per scheduled operation (faulted
/// attempts keep their engine name but carry a `!` suffix), and
/// `kernel` sub-spans subdividing each *completed* Compute interval
/// into its constituent kernels. `parts[job]` lists `(name, seconds)`
/// in execution order and sums to the job's compute time; it is empty
/// when the session was inactive while the pass ran. `base_lane`
/// offsets every lane, so per-device timelines render side by side.
fn emit_modeled_spans(timeline: &[TraceEntry], parts: &[Vec<(&'static str, f64)>], base_lane: u32) {
    if !idg_obs::is_active() {
        return;
    }
    let nr_jobs = timeline.iter().map(|e| e.job + 1).max().unwrap_or(0);
    let mut extents: Vec<Option<(f64, f64)>> = vec![None; nr_jobs];
    for e in timeline {
        let ext = extents[e.job].get_or_insert((e.start, e.end));
        ext.0 = ext.0.min(e.start);
        ext.1 = ext.1.max(e.end);
    }
    for (job, ext) in extents.iter().enumerate() {
        if let Some((start, end)) = ext {
            idg_obs::modeled_span(
                "job",
                "job",
                Some(job as u32),
                base_lane,
                *start,
                end - start,
            );
        }
    }
    for e in timeline {
        let (name, faulted_name, lane) = match e.engine {
            Engine::HtoD => ("HtoD", "HtoD!", base_lane + 1),
            Engine::Compute => ("Compute", "Compute!", base_lane + 2),
            Engine::DtoH => ("DtoH", "DtoH!", base_lane + 3),
        };
        let completed = e.status == OpStatus::Completed;
        idg_obs::modeled_span(
            if completed { name } else { faulted_name },
            "stage",
            Some(e.job as u32),
            lane,
            e.start,
            e.end - e.start,
        );
        if e.engine == Engine::Compute && completed {
            let mut t = e.start;
            for (kernel, dur) in parts.get(e.job).map_or(&[] as &[_], Vec::as_slice) {
                idg_obs::modeled_span(kernel, "kernel", Some(e.job as u32), lane, t, *dur);
                t += dur;
            }
        }
    }
}

/// Raw bytes of the visibilities a group transfers (HtoD payload of a
/// gridding job, DtoH payload of a degridding job).
fn staged_vis_bytes(
    vis: &[Visibility<f32>],
    nr_timesteps: usize,
    nr_channels: usize,
    group: &[WorkItem],
) -> Vec<u8> {
    let mut out = Vec::new();
    for item in group {
        for dt in 0..item.nr_timesteps {
            let row = (item.baseline_index * nr_timesteps + item.time_offset + dt) * nr_channels;
            for c in item.channel_offset..item.channel_offset + item.nr_channels {
                for p in &vis[row + c].pols {
                    out.extend_from_slice(&p.re.to_le_bytes());
                    out.extend_from_slice(&p.im.to_le_bytes());
                }
            }
        }
    }
    out
}

/// Raw bytes of the uvw coordinates a group transfers (degridding HtoD).
fn staged_uvw_bytes(data: &KernelData<'_>, group: &[WorkItem]) -> Vec<u8> {
    let nr_time = data.obs.nr_timesteps;
    let mut out = Vec::new();
    for item in group {
        let base = item.baseline_index * nr_time + item.time_offset;
        for uvw in &data.uvw[base..base + item.nr_timesteps] {
            for f in [uvw.u, uvw.v, uvw.w] {
                out.extend_from_slice(&f.to_le_bytes());
            }
        }
    }
    out
}

/// Raw bytes of a subgrid buffer (DtoH payload of host-adder gridding).
fn staged_subgrid_bytes(subgrids: &SubgridArray) -> Vec<u8> {
    let mut out = Vec::with_capacity(subgrids.as_slice().len() * 8);
    for c in subgrids.as_slice() {
        out.extend_from_slice(&c.re.to_le_bytes());
        out.extend_from_slice(&c.im.to_le_bytes());
    }
    out
}
