//! Streamed passes: chunked ingestion driving the batch pipeline, in
//! both directions.
//!
//! [`Proxy::grid_streamed`] consumes the observation as a sequence of
//! bounded time-axis chunks (split by `idg_stream`), plans and executes
//! each chunk independently across a concurrent worker pool with a
//! bounded admission window, and commits every chunk's subgrids in a
//! single in-order pass at the end. The streamed grid is **bit
//! identical** to the one-shot [`Proxy::grid`] result for every chunk
//! policy and worker count, because:
//!
//! 1. chunk boundaries snap to `aterm_interval` multiples, which are
//!    exactly the boundaries the one-shot planner's accumulation loop
//!    breaks on, and every chunk plan shares the whole-observation
//!    [`UvExtents`], so the chunk-local work items are *verbatim* a
//!    partition of the one-shot plan's items
//!    (see [`idg_plan::Plan::create_windowed`]);
//! 2. each work item's subgrid is produced by the same kernels over the
//!    same full input buffers (items carry global time offsets);
//! 3. the commit sorts all items by
//!    `(baseline_index, channel_offset, time_offset)` — recovering the
//!    one-shot plan order — and performs **one** `add_subgrids` call,
//!    so every f32 accumulation happens in the one-shot order. Summing
//!    per-chunk grids instead would reorder additions (f32 addition is
//!    not associative, and `0.0 + (-0.0)` even flips a sign bit).
//!
//! [`Proxy::degrid_streamed`] is the duplex twin: each chunk's deferred
//! degrid pass splits its subgrids out of the model grid and predicts
//! a chunk-local visibility buffer, and each chunk's visibilities are
//! committed into the caller's buffer exactly once — guarded by a
//! [`CommitLedger`] — in one-shot plan order. Because the degridder
//! *overwrites* disjoint per-item visibility slots (no accumulation
//! anywhere on the read side), the plain in-order copies reproduce
//! [`Proxy::degrid`] bit for bit on every back-end, policy, worker
//! count and fault schedule; see DESIGN.md §12 for the commit-order
//! argument.

use super::{Backend, Proxy};
use crate::report::ExecutionReport;
use idg_gpusim::{DeferredSubgrids, DeferredVis, Pass, HOST_ADDER_BW};
use idg_kernels::{KernelData, SubgridArray};
use idg_perf::{degridder_counts, gridder_counts, OpCounts};
use idg_plan::{UvExtents, WorkItem};
use idg_stream::{
    plan_chunk, Chunk, ChunkPolicy, ChunkedDataset, CommitLedger, StreamDirection, StreamRun,
    StreamScheduler,
};
use idg_telescope::ATerms;
use idg_types::{Grid, IdgError, Uvw, Visibility};
use std::time::Instant;

/// Configuration of a streamed gridding pass.
#[derive(Copy, Clone, Debug)]
pub struct StreamConfig {
    /// Time-axis chunking bounds (A-term snapping applies on top).
    pub policy: ChunkPolicy,
    /// Worker threads executing chunk passes concurrently.
    pub workers: usize,
    /// Admission window: the producer blocks once this many admitted
    /// chunks remain uncompleted (backpressure).
    pub max_inflight: usize,
}

impl StreamConfig {
    /// A streamed-pass configuration; parameters are validated by
    /// [`Proxy::grid_streamed`] (or eagerly via
    /// [`StreamConfig::validate`]).
    pub fn new(policy: ChunkPolicy, workers: usize, max_inflight: usize) -> Self {
        Self {
            policy,
            workers,
            max_inflight,
        }
    }

    /// Typed rejection of degenerate configurations: zero-sized chunk
    /// bounds, zero workers or a zero admission window would all stall
    /// the stream forever.
    pub fn validate(&self) -> Result<(), IdgError> {
        self.policy.validate()?;
        StreamScheduler::new(self.workers, self.max_inflight).map(|_| ())
    }
}

/// A chunk's output awaiting the final commit: subgrids for the adder
/// (gridding) or predicted visibilities for the copy-out (degridding).
enum Deferred {
    Subgrids(DeferredSubgrids),
    Vis(DeferredVis),
}

/// Everything one chunk's pass produced, pending the final commit.
struct ChunkOutput {
    /// The chunk-local plan's work items (global time offsets).
    items: Vec<WorkItem>,
    /// Computed output, with ranges into `items` (job granularity on
    /// the GPU paths, one whole-chunk range on the CPU paths; CPU
    /// fallback ranges follow the device's).
    deferred: Deferred,
    /// The chunk's accounting: measured wall times (CPU) or the modeled
    /// device pass (GPU), whose fallback jobs carry chunk-local indices.
    report: ExecutionReport,
}

/// One committed work item: the item, the chunk whose output holds it,
/// and where — which subgrid array and plane (gridding only).
struct CommitSlot {
    item: WorkItem,
    src: usize,
    array: usize,
    plane: usize,
}

/// A drained stream: every chunk's output, the commit slots in one-shot
/// plan order, and the aggregate report still missing its commit.
struct Drained {
    outputs: Vec<ChunkOutput>,
    slots: Vec<CommitSlot>,
    report: ExecutionReport,
    makespans: Vec<f64>,
    t_start: Instant,
}

impl Drained {
    /// Charge the final commit to the report: the host commit model on
    /// modeled back-ends, whose total is the modeled stream makespan
    /// plus that commit; the measured commit and the stream's wall time
    /// otherwise.
    fn close(&mut self, config: &StreamConfig, commit_model: f64, commit_seconds: f64) {
        let report = &mut self.report;
        if report.modeled {
            report.adder_seconds += commit_model;
            let lanes = config.workers.min(config.max_inflight);
            report.total_seconds = stream_makespan(&self.makespans, lanes) + commit_model;
        } else {
            report.adder_seconds += commit_seconds;
            report.total_seconds = self.t_start.elapsed().as_secs_f64();
        }
    }
}

/// Deterministic makespan model of the concurrent chunk passes: greedy
/// list scheduling of the chunk makespans, in ingestion order, onto
/// `lanes` modeled workers. The effective concurrency is bounded by
/// both the worker pool and the admission window, so the caller passes
/// `min(workers, max_inflight)`.
fn stream_makespan(chunk_makespans: &[f64], lanes: usize) -> f64 {
    let mut lane_busy = vec![0.0f64; lanes.max(1)];
    for &m in chunk_makespans {
        let mut earliest = 0usize;
        for (i, &t) in lane_busy.iter().enumerate() {
            if t < lane_busy[earliest] {
                earliest = i;
            }
        }
        lane_busy[earliest] += m;
    }
    lane_busy.iter().fold(0.0f64, |a, &b| a.max(b))
}

impl Proxy {
    /// Grid visibilities through the streaming front-end: chunked
    /// ingestion, a concurrent bounded-window pass scheduler, and a
    /// single deferred in-order commit.
    ///
    /// The returned grid is bit-identical to [`Proxy::grid`] over the
    /// same inputs, for every chunk policy, worker count and completion
    /// order (see the module docs for the argument); the report carries
    /// the scheduling summary in [`ExecutionReport::stream`].
    pub fn grid_streamed(
        &self,
        config: &StreamConfig,
        uvw: &[Uvw],
        visibilities: &[Visibility<f32>],
        aterms: &ATerms,
    ) -> Result<(Grid<f32>, ExecutionReport), IdgError> {
        let data = self.checked_data(uvw, visibilities, aterms, None)?;
        let mut drained = self.drain_stream(config, &data, None)?;

        // the single in-order commit: gather every subgrid in one-shot
        // plan order, then one adder call
        let n = self.obs.subgrid_size;
        let mut combined = SubgridArray::new(drained.slots.len(), n);
        let mut items: Vec<WorkItem> = Vec::with_capacity(drained.slots.len());
        for (i, slot) in drained.slots.iter().enumerate() {
            if let Deferred::Subgrids(pending) = &drained.outputs[slot.src].deferred {
                let src = pending[slot.array].1.subgrid(slot.plane);
                combined.subgrid_mut(i).copy_from_slice(src);
            }
            items.push(slot.item);
        }
        let (grid, commit_seconds) = self.adder_stage(&items, &combined)?;
        let commit_model = (items.len() * 4 * n * n * 8) as f64 / HOST_ADDER_BW;
        drained.close(config, commit_model, commit_seconds);
        Ok((grid, drained.report))
    }

    /// Run [`Proxy::grid_streamed`] under an observability session (the
    /// streamed counterpart of [`Proxy::grid_observed`], with the same
    /// self-validation contract adapted to chunked execution).
    pub fn grid_streamed_observed(
        &self,
        config: &StreamConfig,
        uvw: &[Uvw],
        visibilities: &[Visibility<f32>],
        aterms: &ATerms,
    ) -> Result<(Grid<f32>, ExecutionReport, idg_obs::Trace), IdgError> {
        self.observed(
            "gridding",
            || self.grid_streamed(config, uvw, visibilities, aterms),
            || self.streamed_expectations(config, uvw, true),
        )
    }

    /// Predict visibilities from a model grid through the streaming
    /// front-end — the duplex twin of [`Proxy::grid_streamed`]: a
    /// deferred splitter stage extracts each chunk's subgrids, the
    /// chunk-local degrid passes run across the same bounded-window
    /// scheduler, and every chunk's predicted visibilities are
    /// committed into the output buffer exactly once, in one-shot plan
    /// order.
    ///
    /// The returned visibilities are bit-identical to
    /// [`Proxy::degrid`] over the same inputs, for every chunk policy,
    /// worker count, completion order and fault schedule: the chunk
    /// plans partition the one-shot plan's items verbatim, the
    /// degridder overwrites disjoint per-item slots (no accumulation
    /// on the read side), and the commit copies each item's rows from
    /// its chunk's buffer — guarded by a [`CommitLedger`] so each
    /// chunk commits exactly once.
    pub fn degrid_streamed(
        &self,
        config: &StreamConfig,
        grid: &Grid<f32>,
        uvw: &[Uvw],
        aterms: &ATerms,
    ) -> Result<(Vec<Visibility<f32>>, ExecutionReport), IdgError> {
        let zeros = vec![Visibility::<f32>::zero(); self.obs.nr_visibilities()];
        let data = self.checked_data(uvw, &zeros, aterms, Some(grid))?;
        let mut drained = self.drain_stream(config, &data, Some(grid))?;

        // the exactly-once in-order commit: each item's rows are plain
        // copies of disjoint slots
        let nr_time = self.obs.nr_timesteps;
        let nr_chan = self.obs.nr_channels();
        let mut vis = vec![Visibility::<f32>::zero(); self.obs.nr_visibilities()];
        let mut committed_vis = 0u64;
        let t_commit = Instant::now();
        {
            let _span = idg_obs::wall_span("vis_commit", "stage", None);
            for slot in &drained.slots {
                let Deferred::Vis(src) = &drained.outputs[slot.src].deferred else {
                    continue;
                };
                let item = &slot.item;
                for dt in 0..item.nr_timesteps {
                    let row = (item.baseline_index * nr_time + item.time_offset + dt) * nr_chan;
                    let cols =
                        row + item.channel_offset..row + item.channel_offset + item.nr_channels;
                    vis[cols.clone()].copy_from_slice(&src.vis[cols]);
                }
                committed_vis += (item.nr_timesteps * item.nr_channels) as u64;
            }
        }
        let commit_seconds = t_commit.elapsed().as_secs_f64();
        // each committed visibility is one 4-pol read + write (32 B)
        let commit_model = (committed_vis * 2 * 32) as f64 / HOST_ADDER_BW;
        drained.close(config, commit_model, commit_seconds);
        Ok((vis, drained.report))
    }

    /// Run [`Proxy::degrid_streamed`] under an observability session
    /// (the streamed counterpart of [`Proxy::degrid_observed`], with
    /// the self-validation contract adapted to chunked execution).
    pub fn degrid_streamed_observed(
        &self,
        config: &StreamConfig,
        grid: &Grid<f32>,
        uvw: &[Uvw],
        aterms: &ATerms,
    ) -> Result<(Vec<Visibility<f32>>, ExecutionReport, idg_obs::Trace), IdgError> {
        self.observed(
            "degridding",
            || self.degrid_streamed(config, grid, uvw, aterms),
            || self.streamed_expectations(config, uvw, false),
        )
    }

    /// Run every chunk's pass (gridding, or degridding `grid`) through
    /// the scheduler, then drain the outputs: each chunk exactly once
    /// (the [`CommitLedger`]), every covered work item behind a commit
    /// slot sorted by `(baseline, channel group, time)` — which
    /// recovers the one-shot plan's item order — fallback indices
    /// remapped to stream-global ones, and the chunk reports summed.
    fn drain_stream(
        &self,
        config: &StreamConfig,
        data: &KernelData<'_>,
        grid: Option<&Grid<f32>>,
    ) -> Result<Drained, IdgError> {
        config.validate()?;
        let scheduler = StreamScheduler::new(config.workers, config.max_inflight)?;
        let chunks = ChunkedDataset::split(&self.obs, &config.policy)?;
        let extents = UvExtents::compute(&self.obs, data.uvw)?;

        let t_start = Instant::now();
        let StreamRun { results, mut stats } = scheduler.run_stream(chunks.chunks(), |chunk| {
            self.run_chunk(data, &extents, grid, chunk)
        })?;
        let pass = match grid {
            None => "gridding",
            Some(_) => {
                stats.direction = StreamDirection::Degridding;
                "degridding"
            }
        };
        let outputs = results.into_iter().collect::<Result<Vec<_>, _>>()?;

        let mut report = ExecutionReport::new(self.backend, pass, OpCounts::default(), [0.0; 3]);
        report.stream = Some(stats);
        let mut slots: Vec<CommitSlot> = Vec::new();
        let mut makespans = Vec::with_capacity(outputs.len());
        let mut ledger = CommitLedger::new(outputs.len());
        let (mut item_base, mut job_base) = (0usize, 0usize);
        for (src, out) in outputs.iter().enumerate() {
            ledger.commit(src)?;
            let ranges: Vec<_> = match &out.deferred {
                Deferred::Subgrids(pending) => pending.iter().map(|(r, _)| r.clone()).collect(),
                Deferred::Vis(deferred) => deferred.ranges.clone(),
            };
            for (array, range) in ranges.into_iter().enumerate() {
                for (plane, idx) in range.enumerate() {
                    let item = out.items[idx];
                    slots.push(CommitSlot {
                        item,
                        src,
                        array,
                        plane,
                    });
                }
            }
            report
                .fallback_jobs
                .extend(out.report.fallback_jobs.iter().map(|f| {
                    let mut failure = f.clone();
                    failure.job += job_base;
                    failure.first_item += item_base;
                    failure
                }));
            report.absorb(&out.report);
            makespans.push(out.report.total_seconds);
            item_base += out.items.len();
            job_base += out.items.len().div_ceil(self.work_group_size);
        }
        ledger.finish()?;
        if slots.len() != item_base {
            return Err(IdgError::Internal(format!(
                "streamed {pass} commit covers {} of {} work items",
                slots.len(),
                item_base
            )));
        }
        slots.sort_by_key(|s| {
            (
                s.item.baseline_index,
                s.item.channel_offset,
                s.item.time_offset,
            )
        });
        Ok(Drained {
            outputs,
            slots,
            report,
            makespans,
            t_start,
        })
    }

    /// One chunk's pass — gridding, or degridding `grid` — planned
    /// against the shared uv extents, with the commit left to the
    /// caller. Runs on a scheduler worker thread.
    fn run_chunk(
        &self,
        data: &KernelData<'_>,
        extents: &UvExtents,
        grid: Option<&Grid<f32>>,
        chunk: &Chunk,
    ) -> Result<ChunkOutput, IdgError> {
        let plan = plan_chunk(&self.obs, data.uvw, extents, chunk)?;
        let n = self.obs.subgrid_size;
        let tag = u32::try_from(chunk.index).ok();
        let whole = 0..plan.items.len();
        let (deferred, report) = match (grid, self.backend.modeled()) {
            (None, false) => {
                let (subgrids, [t_kernel, t_fft]) =
                    self.grid_chain(data, &plan.items, tag, None)?;
                let counts = gridder_counts(&plan.items, n);
                let times = [t_kernel, t_fft, 0.0];
                let report = ExecutionReport::new(self.backend, "gridding", counts, times);
                (Deferred::Subgrids(vec![(whole, subgrids)]), report)
            }
            (Some(grid), false) => {
                let (vis, times) = self.degrid_chain(data, &plan.items, grid, tag, None)?;
                let counts = degridder_counts(&plan.items, n);
                let report = ExecutionReport::new(self.backend, "degridding", counts, times);
                let ranges = vec![whole];
                (Deferred::Vis(DeferredVis { ranges, vis }), report)
            }
            (None, true) => {
                let mut pending = Vec::new();
                let report =
                    self.device_pass(data, &plan, &mut Pass::GridDeferred(&mut pending))?;
                (Deferred::Subgrids(pending), report)
            }
            (Some(grid), true) => {
                let mut out = DeferredVis::default();
                let report = self.device_pass(data, &plan, &mut Pass::Degrid(grid, &mut out))?;
                (Deferred::Vis(out), report)
            }
        };
        Ok(ChunkOutput {
            items: plan.items,
            deferred,
            report,
        })
    }

    /// What an observed streamed pass must measure (see
    /// [`Proxy::grid_observed`] for the contract). The chunk-local
    /// plans are re-derived here — planning is cheap next to the
    /// kernels — for the analytic counts, total item count and
    /// per-chunk job counts.
    ///
    /// Streamed cache cadence. Gridding: the reference path looks up
    /// once (the final commit's phasor tables); the optimized CPU path
    /// once per chunk (geometry planes) plus the commit; the GPU paths
    /// once per device job (compute phases) plus the commit.
    /// Degridding: the splitter looks up phasors once per chunk
    /// (reference) or per job (GPU), the degridder adds a geometry
    /// lookup per chunk (optimized CPU) or per job (GPU), and the final
    /// visibility commit is plain copies — no lookup.
    fn streamed_expectations(
        &self,
        config: &StreamConfig,
        uvw: &[Uvw],
        gridding: bool,
    ) -> Result<(OpCounts, u64, u64), IdgError> {
        let chunks = ChunkedDataset::split(&self.obs, &config.policy)?;
        let extents = UvExtents::compute(&self.obs, uvw)?;
        let mut analytic = OpCounts::default();
        let (mut nr_items, mut nr_jobs) = (0u64, 0u64);
        for chunk in chunks.chunks() {
            let plan = plan_chunk(&self.obs, uvw, &extents, chunk)?;
            analytic.add(&match gridding {
                true => gridder_counts(&plan.items, self.obs.subgrid_size),
                false => degridder_counts(&plan.items, self.obs.subgrid_size),
            });
            nr_items += plan.items.len() as u64;
            nr_jobs += plan.work_groups(self.work_group_size).count() as u64;
        }
        let nr_chunks = chunks.len() as u64;
        let lookups = match (self.backend, gridding) {
            (Backend::CpuReference, true) => 1,
            (Backend::CpuOptimized, true) => nr_chunks + 1,
            (Backend::GpuPascal | Backend::GpuFiji, true) => nr_jobs + 1,
            (Backend::CpuReference, false) => nr_chunks,
            (Backend::CpuOptimized, false) => 2 * nr_chunks,
            (Backend::GpuPascal | Backend::GpuFiji, false) => 2 * nr_jobs,
        };
        Ok((analytic, nr_items, lookups))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idg_telescope::{Dataset, GaussianBeam, Layout, SkyModel};
    use idg_types::Observation;

    fn dataset() -> Dataset {
        let obs = Observation::builder()
            .stations(5)
            .timesteps(48)
            .channels(4, 150e6, 2e6)
            .grid_size(256)
            .subgrid_size(16)
            .kernel_size(5)
            .aterm_interval(8)
            .image_size(0.05)
            .build()
            .unwrap();
        let layout = Layout::uniform(5, 900.0, 171);
        let sky = SkyModel::random(&obs, 4, 0.6, 173);
        let beam = GaussianBeam::new(&obs, 0.8, 179);
        Dataset::simulate(obs, &layout, sky, &beam)
    }

    fn assert_bit_identical(a: &Grid<f32>, b: &Grid<f32>) {
        assert_eq!(a.size(), b.size());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(x.re.to_bits(), y.re.to_bits());
            assert_eq!(x.im.to_bits(), y.im.to_bits());
        }
    }

    #[test]
    fn streamed_grid_is_bit_identical_to_one_shot_on_every_backend() {
        let ds = dataset();
        for backend in Backend::all() {
            let proxy = Proxy::new(backend, ds.obs.clone()).unwrap();
            let plan = proxy.plan(&ds.uvw).unwrap();
            let (reference, _) = proxy
                .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
                .unwrap();
            let config = StreamConfig::new(ChunkPolicy::by_timesteps(8), 2, 2);
            let (streamed, report) = proxy
                .grid_streamed(&config, &ds.uvw, &ds.visibilities, &ds.aterms)
                .unwrap();
            assert_bit_identical(&reference, &streamed);
            let stats = report.stream.expect("streamed pass reports stream stats");
            assert_eq!(stats.nr_chunks, 6, "{backend:?}");
            assert_eq!(stats.completed_chunks, 6);
            assert_eq!(stats.failed_chunks, 0);
            assert_eq!(stats.inflight_max, 2);
            assert_eq!(stats.backpressure_waits, 4);
        }
    }

    #[test]
    fn streamed_pass_survives_chunk_policies_tighter_than_one_interval() {
        // a 1-timestep policy snaps up to whole A-term intervals; the
        // grid stays bit-identical and every timestep is still covered
        let ds = dataset();
        let proxy = Proxy::new(Backend::CpuOptimized, ds.obs.clone()).unwrap();
        let plan = proxy.plan(&ds.uvw).unwrap();
        let (reference, _) = proxy
            .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap();
        let config = StreamConfig::new(ChunkPolicy::by_timesteps(1), 3, 4);
        let (streamed, report) = proxy
            .grid_streamed(&config, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap();
        assert_bit_identical(&reference, &streamed);
        assert_eq!(report.stream.unwrap().nr_chunks, 6);
    }

    #[test]
    fn stream_config_rejects_degenerate_parameters() {
        let bad = [
            StreamConfig::new(ChunkPolicy::by_timesteps(0), 2, 2),
            StreamConfig::new(ChunkPolicy::by_visibilities(0), 2, 2),
            StreamConfig::new(ChunkPolicy::by_timesteps(8), 0, 2),
            StreamConfig::new(ChunkPolicy::by_timesteps(8), 2, 0),
        ];
        for config in bad {
            assert!(matches!(
                config.validate(),
                Err(IdgError::InvalidParameter(_))
            ));
        }
    }

    #[test]
    fn observed_streamed_runs_self_validate_on_every_backend() {
        let ds = dataset();
        let config = StreamConfig::new(ChunkPolicy::by_timesteps(16), 2, 3);
        for backend in Backend::all() {
            let proxy = Proxy::new(backend, ds.obs.clone()).unwrap();
            let (_, report, trace) = proxy
                .grid_streamed_observed(&config, &ds.uvw, &ds.visibilities, &ds.aterms)
                .unwrap();
            let metrics = report.metrics.expect("observed run attaches metrics");
            assert_eq!(metrics.chunks_ingested, 3, "{backend:?}");
            assert_eq!(metrics.passes_inflight_max, 3);
            assert!(trace
                .spans
                .iter()
                .any(|s| s.name == "chunk" || s.name == "adder"));
        }
    }

    fn assert_vis_bit_identical(a: &[Visibility<f32>], b: &[Visibility<f32>]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            for (p, q) in x.pols.iter().zip(y.pols.iter()) {
                assert_eq!(p.re.to_bits(), q.re.to_bits());
                assert_eq!(p.im.to_bits(), q.im.to_bits());
            }
        }
    }

    #[test]
    fn streamed_degrid_is_bit_identical_to_one_shot_on_every_backend() {
        let ds = dataset();
        for backend in Backend::all() {
            let proxy = Proxy::new(backend, ds.obs.clone()).unwrap();
            let plan = proxy.plan(&ds.uvw).unwrap();
            let (model, _) = proxy
                .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
                .unwrap();
            let (reference, _) = proxy.degrid(&plan, &model, &ds.uvw, &ds.aterms).unwrap();
            let config = StreamConfig::new(ChunkPolicy::by_timesteps(8), 2, 2);
            let (streamed, report) = proxy
                .degrid_streamed(&config, &model, &ds.uvw, &ds.aterms)
                .unwrap();
            assert_vis_bit_identical(&reference, &streamed);
            assert_eq!(report.pass, "degridding");
            let stats = report.stream.expect("streamed pass reports stream stats");
            assert_eq!(stats.direction, idg_stream::StreamDirection::Degridding);
            assert_eq!(stats.nr_chunks, 6, "{backend:?}");
            assert_eq!(stats.completed_chunks, 6);
            assert_eq!(stats.failed_chunks, 0);
            assert_eq!(stats.inflight_max, 2);
            assert_eq!(stats.backpressure_waits, 4);
        }
    }

    #[test]
    fn observed_streamed_degrid_runs_self_validate_on_every_backend() {
        let ds = dataset();
        let config = StreamConfig::new(ChunkPolicy::by_timesteps(16), 2, 3);
        for backend in Backend::all() {
            let proxy = Proxy::new(backend, ds.obs.clone()).unwrap();
            let plan = proxy.plan(&ds.uvw).unwrap();
            let (model, _) = proxy
                .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
                .unwrap();
            let (_, report, trace) = proxy
                .degrid_streamed_observed(&config, &model, &ds.uvw, &ds.aterms)
                .unwrap();
            let metrics = report.metrics.expect("observed run attaches metrics");
            assert_eq!(metrics.chunks_ingested, 3, "{backend:?}");
            assert_eq!(metrics.passes_inflight_max, 3);
            assert!(trace
                .spans
                .iter()
                .any(|s| s.name == "chunk" || s.name == "vis_commit"));
        }
    }

    #[test]
    fn streamed_degrid_rejects_degenerate_parameters_typed() {
        let ds = dataset();
        let proxy = Proxy::new(Backend::CpuOptimized, ds.obs.clone()).unwrap();
        let plan = proxy.plan(&ds.uvw).unwrap();
        let (model, _) = proxy
            .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            .unwrap();
        let bad = [
            StreamConfig::new(ChunkPolicy::by_timesteps(0), 2, 2),
            StreamConfig::new(ChunkPolicy::by_visibilities(0), 2, 2),
            StreamConfig::new(ChunkPolicy::by_timesteps(8), 0, 2),
            StreamConfig::new(ChunkPolicy::by_timesteps(8), 2, 0),
        ];
        for config in bad {
            assert!(matches!(
                proxy.degrid_streamed(&config, &model, &ds.uvw, &ds.aterms),
                Err(IdgError::InvalidParameter(_))
            ));
        }
    }

    #[test]
    fn modeled_stream_makespan_overlaps_chunks_across_lanes() {
        // two equal chunks on two lanes finish in one chunk's time
        let span = stream_makespan(&[1.0, 1.0], 2);
        assert!((span - 1.0).abs() < 1e-12);
        // one lane serializes them
        assert!((stream_makespan(&[1.0, 1.0], 1) - 2.0).abs() < 1e-12);
        // list scheduling packs the short chunks behind the long one
        assert!((stream_makespan(&[3.0, 1.0, 1.0, 1.0], 2) - 3.0).abs() < 1e-12);
    }

    /// Observed one-shot and streamed gridding on a fresh proxy: each
    /// pass's metrics JSON. Returning `Ok` means both passes passed
    /// their exact self-validation against the analytic model.
    fn observed_metrics(backend: Backend, ds: &Dataset) -> Result<[String; 2], IdgError> {
        let proxy = Proxy::new(backend, ds.obs.clone())?;
        let plan = proxy.plan(&ds.uvw)?;
        let (_, _, one_shot) = proxy.grid_observed(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)?;
        let config = StreamConfig::new(ChunkPolicy::by_timesteps(16), 2, 3);
        let (_, _, streamed) =
            proxy.grid_streamed_observed(&config, &ds.uvw, &ds.visibilities, &ds.aterms)?;
        Ok([one_shot.metrics.to_json(), streamed.metrics.to_json()])
    }

    const OBSERVED_BACKENDS: [Backend; 2] = [Backend::CpuOptimized, Backend::GpuPascal];

    #[test]
    fn observed_passes_ignore_unobserved_passes_on_other_threads() {
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

        let ds = dataset();
        for backend in OBSERVED_BACKENDS {
            let solo = observed_metrics(backend, &ds).unwrap();
            let stop = AtomicBool::new(false);
            let background_passes = AtomicUsize::new(0);
            let observed = std::thread::scope(|scope| {
                let background = scope.spawn(|| {
                    let proxy = Proxy::new(backend, ds.obs.clone()).unwrap();
                    let plan = proxy.plan(&ds.uvw).unwrap();
                    while !stop.load(Ordering::Relaxed) {
                        let (grid, _) = proxy
                            .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
                            .unwrap();
                        proxy.degrid(&plan, &grid, &ds.uvw, &ds.aterms).unwrap();
                        background_passes.fetch_add(1, Ordering::Relaxed);
                    }
                });
                while background_passes.load(Ordering::Relaxed) == 0 && !background.is_finished() {
                    std::thread::yield_now();
                }
                let observed = (0..3)
                    .map(|_| observed_metrics(backend, &ds))
                    .collect::<Result<Vec<_>, _>>();
                stop.store(true, Ordering::Relaxed);
                observed
            });
            for metrics in observed.unwrap() {
                assert_eq!(metrics, solo, "{backend:?}");
            }
        }
    }

    #[test]
    fn concurrent_observed_passes_each_see_only_their_own_work() {
        let ds = dataset();
        for backend in OBSERVED_BACKENDS {
            let solo = observed_metrics(backend, &ds).unwrap();
            let start = std::sync::Barrier::new(2);
            let run = || {
                start.wait();
                observed_metrics(backend, &ds)
            };
            let runs = std::thread::scope(|scope| {
                let other = scope.spawn(run);
                [run(), other.join().unwrap()]
            });
            for metrics in runs {
                assert_eq!(metrics.unwrap(), solo, "{backend:?}");
            }
        }
    }
}
