//! The measured operations.
//!
//! `run_op` is a workload's closed-loop op as a user calls it: the
//! public end-to-end entry points, untraced. The `*_chain` functions
//! run the same computation through the layers' public functions, one
//! span around each call, in the order the end-to-end entry point runs
//! them; their outputs must match the end-to-end outputs bit for bit.

use crate::trace::{SpanId, Tracer};
use crate::workloads::{clean_params, stream_config, OpKind, Ready, Spec};
use idg::stream::{plan_chunk, ChunkedDataset, StreamScheduler, StreamStats};
use idg::{Grid, IdgError, Visibility, WorkItem};
use idg_fft::Direction;
use idg_imaging::clean::components_to_image;
use idg_imaging::{
    dirty_image, hogbom_clean, model_grid_from_image, psf_image, CleanComponent, Image,
    ImagingCycle,
};
use idg_kernels::{
    add_subgrids, degridder_cpu, fft_subgrids, gridder_cpu, split_subgrids, FftNorm, KernelData,
    SubgridArray,
};
use idg_math::Accuracy;
use idg_plan::UvExtents;
use std::time::Instant;

/// A grid pass followed by a degrid pass of its grid.
pub struct Passes {
    pub grid: Grid<f32>,
    pub vis: Vec<Visibility<f32>>,
    pub grid_s: f64,
    pub degrid_s: f64,
}

/// What an imaging run produced (the parts compared bit for bit).
pub struct CycleOutput {
    pub components: Vec<CleanComponent>,
    pub residual_rms: Vec<f64>,
    pub residual: Image,
}

/// One closed-loop op: the passes whose throughput is reported, the
/// imaging run on `cycle`, and the op's wall time (`cycle_s`).
pub struct OpSample {
    pub passes: Passes,
    pub cycle: Option<CycleOutput>,
    pub op_s: f64,
}

/// `f`'s result and its wall time in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// One-shot `Proxy::grid`, then `Proxy::degrid` of its grid.
pub fn oneshot_calls(r: &Ready) -> Result<Passes, IdgError> {
    let ds = &r.ds;
    let (grid, grid_s) = timed(|| r.proxy.grid(&r.plan, &ds.uvw, &ds.visibilities, &ds.aterms));
    let (grid, _) = grid?;
    let (vis, degrid_s) = timed(|| r.proxy.degrid(&r.plan, &grid, &ds.uvw, &ds.aterms));
    let (vis, _) = vis?;
    Ok(Passes {
        grid,
        vis,
        grid_s,
        degrid_s,
    })
}

/// `Proxy::grid_streamed`, then `Proxy::degrid_streamed` of its grid.
pub fn streamed_calls(r: &Ready) -> Result<(Passes, [StreamStats; 2]), IdgError> {
    let ds = &r.ds;
    let config = stream_config();
    let (grid, grid_s) = timed(|| {
        r.proxy
            .grid_streamed(&config, &ds.uvw, &ds.visibilities, &ds.aterms)
    });
    let (grid, grid_report) = grid?;
    let (vis, degrid_s) = timed(|| r.proxy.degrid_streamed(&config, &grid, &ds.uvw, &ds.aterms));
    let (vis, degrid_report) = vis?;
    let stats = |s: Option<StreamStats>| {
        s.ok_or_else(|| IdgError::Internal("streamed pass returned no stream stats".into()))
    };
    let stats = [stats(grid_report.stream)?, stats(degrid_report.stream)?];
    Ok((
        Passes {
            grid,
            vis,
            grid_s,
            degrid_s,
        },
        stats,
    ))
}

/// `ImagingCycle::run` on the observed visibilities.
pub fn cycle_call(r: &Ready, spec: &Spec) -> Result<CycleOutput, IdgError> {
    let ds = &r.ds;
    let cycle = ImagingCycle::new(&r.proxy, &r.plan, &ds.uvw, &ds.aterms);
    let report = cycle.run(&ds.visibilities, spec.major_cycles, &clean_params())?;
    Ok(CycleOutput {
        components: report.components,
        residual_rms: report.residual_rms,
        residual: report.residual,
    })
}

/// The workload's op through its end-to-end entry points.
pub fn run_op(r: &Ready, spec: &Spec) -> Result<OpSample, IdgError> {
    let (passes, cycle, op_s) = match spec.op {
        OpKind::Streamed => {
            let (passes, _) = streamed_calls(r)?;
            let op_s = passes.grid_s + passes.degrid_s;
            (passes, None, op_s)
        }
        OpKind::OneShot => {
            let passes = oneshot_calls(r)?;
            let op_s = passes.grid_s + passes.degrid_s;
            (passes, None, op_s)
        }
        OpKind::Imaging => {
            let (cycle, op_s) = timed(|| cycle_call(r, spec));
            (oneshot_calls(r)?, Some(cycle?), op_s)
        }
    };
    Ok(OpSample {
        passes,
        cycle,
        op_s,
    })
}

/// Kernel inputs exactly as the proxy assembles them.
fn kernel_data<'a>(r: &'a Ready, visibilities: &'a [Visibility<f32>]) -> KernelData<'a> {
    KernelData {
        obs: &r.ds.obs,
        uvw: &r.ds.uvw,
        visibilities,
        aterms: &r.ds.aterms,
        taper: r.proxy.taper(),
    }
}

/// `Proxy::grid`'s chain (gridder → subgrid FFT → adder), then
/// `Proxy::degrid`'s (splitter → inverse subgrid FFT → degridder).
pub fn oneshot_chain(
    r: &Ready,
    tracer: &Tracer,
    op: u64,
    parent: Option<SpanId>,
) -> Result<Passes, IdgError> {
    let obs = &r.ds.obs;
    let items = &r.plan.items;
    let cache = r.proxy.kernel_cache();
    let n = obs.subgrid_size;

    let (grid, grid_s) = timed(|| {
        tracer.span("core.grid", parent, op, |p| {
            let data = kernel_data(r, &r.ds.visibilities);
            let mut subgrids = SubgridArray::new(items.len(), n);
            tracer.span("kernels.gridder", p, op, |_| {
                gridder_cpu(&data, items, &mut subgrids, Accuracy::Medium, cache)
            })?;
            tracer.span("kernels.subgrid_fft.fwd", p, op, |_| {
                fft_subgrids(&mut subgrids, Direction::Forward, FftNorm::None);
            });
            let mut grid = Grid::<f32>::new(obs.grid_size);
            tracer.span("kernels.adder", p, op, |_| {
                add_subgrids(&mut grid, items, &subgrids, cache)
            })?;
            Ok::<_, IdgError>(grid)
        })
    });
    let grid = grid?;

    let (vis, degrid_s) = timed(|| {
        tracer.span("core.degrid", parent, op, |p| {
            let zeros = vec![Visibility::<f32>::zero(); obs.nr_visibilities()];
            let data = kernel_data(r, &zeros);
            let mut subgrids = SubgridArray::new(items.len(), n);
            tracer.span("kernels.splitter", p, op, |_| {
                split_subgrids(&grid, items, &mut subgrids, cache)
            })?;
            tracer.span("kernels.subgrid_fft.inv", p, op, |_| {
                fft_subgrids(&mut subgrids, Direction::Inverse, FftNorm::None);
            });
            let mut vis = vec![Visibility::<f32>::zero(); obs.nr_visibilities()];
            tracer.span("kernels.degridder", p, op, |_| {
                degridder_cpu(&data, items, &subgrids, &mut vis, Accuracy::Medium, cache)
            })?;
            Ok::<_, IdgError>(vis)
        })
    });
    Ok(Passes {
        grid,
        vis: vis?,
        grid_s,
        degrid_s,
    })
}

/// Sort key that recovers the one-shot plan's item order — the order
/// both streamed commits apply.
fn plan_order(item: &WorkItem) -> (usize, usize, usize) {
    (item.baseline_index, item.channel_offset, item.time_offset)
}

/// The streamed chain: chunking, the scheduler driving per-chunk
/// plan → kernel passes, and the single in-order commit — for the grid
/// pass, then for the degrid pass of its grid.
pub fn streamed_chain(
    r: &Ready,
    tracer: &Tracer,
    op: u64,
    parent: Option<SpanId>,
) -> Result<(Passes, [StreamStats; 2]), IdgError> {
    let obs = &r.ds.obs;
    let uvw = &r.ds.uvw;
    let cache = r.proxy.kernel_cache();
    let n = obs.subgrid_size;
    let config = stream_config();
    let scheduler = StreamScheduler::new(config.workers, config.max_inflight)?;
    let chunks = ChunkedDataset::split(obs, &config.policy)?;
    let extents = UvExtents::compute(obs, uvw)?;

    let (grid, grid_s) = timed(|| {
        tracer.span("stream.grid", parent, op, |p| {
            let data = kernel_data(r, &r.ds.visibilities);
            let run = scheduler.run_stream(chunks.chunks(), |chunk| {
                tracer.span("stream.chunk", p, op, |cp| {
                    let plan = tracer.span("plan.chunk", cp, op, |_| {
                        plan_chunk(obs, uvw, &extents, chunk)
                    })?;
                    let mut subgrids = SubgridArray::new(plan.nr_subgrids(), n);
                    tracer.span("kernels.gridder", cp, op, |_| {
                        gridder_cpu(&data, &plan.items, &mut subgrids, Accuracy::Medium, cache)
                    })?;
                    tracer.span("kernels.subgrid_fft.fwd", cp, op, |_| {
                        fft_subgrids(&mut subgrids, Direction::Forward, FftNorm::None);
                    });
                    Ok((plan.items, subgrids))
                })
            })?;
            let outputs = run.results.into_iter().collect::<Result<Vec<_>, _>>()?;
            let grid = tracer.span("stream.commit", p, op, |cp| {
                let mut slots: Vec<(WorkItem, usize, usize)> = outputs
                    .iter()
                    .enumerate()
                    .flat_map(|(src, (items, _))| {
                        items
                            .iter()
                            .enumerate()
                            .map(move |(i, item)| (*item, src, i))
                    })
                    .collect();
                slots.sort_by_key(|s| plan_order(&s.0));
                let mut combined = SubgridArray::new(slots.len(), n);
                for (i, (_, src, plane)) in slots.iter().enumerate() {
                    combined
                        .subgrid_mut(i)
                        .copy_from_slice(outputs[*src].1.subgrid(*plane));
                }
                let items: Vec<WorkItem> = slots.iter().map(|s| s.0).collect();
                let mut grid = Grid::<f32>::new(obs.grid_size);
                tracer.span("kernels.adder", cp, op, |_| {
                    add_subgrids(&mut grid, &items, &combined, cache)
                })?;
                Ok::<_, IdgError>(grid)
            })?;
            Ok::<_, IdgError>((grid, run.stats))
        })
    });
    let (grid, grid_stats) = grid?;

    let (vis, degrid_s) = timed(|| {
        tracer.span("stream.degrid", parent, op, |p| {
            let zeros = vec![Visibility::<f32>::zero(); obs.nr_visibilities()];
            let data = kernel_data(r, &zeros);
            let run = scheduler.run_stream(chunks.chunks(), |chunk| {
                tracer.span("stream.chunk", p, op, |cp| {
                    let plan = tracer.span("plan.chunk", cp, op, |_| {
                        plan_chunk(obs, uvw, &extents, chunk)
                    })?;
                    let mut subgrids = SubgridArray::new(plan.nr_subgrids(), n);
                    tracer.span("kernels.splitter", cp, op, |_| {
                        split_subgrids(&grid, &plan.items, &mut subgrids, cache)
                    })?;
                    tracer.span("kernels.subgrid_fft.inv", cp, op, |_| {
                        fft_subgrids(&mut subgrids, Direction::Inverse, FftNorm::None);
                    });
                    let mut vis = vec![Visibility::<f32>::zero(); obs.nr_visibilities()];
                    tracer.span("kernels.degridder", cp, op, |_| {
                        degridder_cpu(
                            &data,
                            &plan.items,
                            &subgrids,
                            &mut vis,
                            Accuracy::Medium,
                            cache,
                        )
                    })?;
                    Ok((plan.items, vis))
                })
            })?;
            let outputs = run.results.into_iter().collect::<Result<Vec<_>, _>>()?;
            let vis = tracer.span("stream.commit", p, op, |_| {
                let mut slots: Vec<(WorkItem, usize)> = outputs
                    .iter()
                    .enumerate()
                    .flat_map(|(src, (items, _))| items.iter().map(move |item| (*item, src)))
                    .collect();
                slots.sort_by_key(|s| plan_order(&s.0));
                let nr_time = obs.nr_timesteps;
                let nr_chan = obs.nr_channels();
                let mut vis = vec![Visibility::<f32>::zero(); obs.nr_visibilities()];
                for (item, src) in &slots {
                    for dt in 0..item.nr_timesteps {
                        let row = (item.baseline_index * nr_time + item.time_offset + dt) * nr_chan;
                        let cols =
                            row + item.channel_offset..row + item.channel_offset + item.nr_channels;
                        vis[cols.clone()].copy_from_slice(&outputs[*src].1[cols]);
                    }
                }
                vis
            });
            Ok::<_, IdgError>((vis, run.stats))
        })
    });
    let (vis, degrid_stats) = vis?;
    Ok((
        Passes {
            grid,
            vis,
            grid_s,
            degrid_s,
        },
        [grid_stats, degrid_stats],
    ))
}

/// `ImagingCycle::run` through the imaging layer's functions:
/// `psf_image`, then per major cycle `Proxy::grid` → `dirty_image` →
/// `hogbom_clean` → `model_grid_from_image` → `Proxy::degrid` →
/// subtract, and a final residual image.
pub fn imaging_chain(
    r: &Ready,
    spec: &Spec,
    tracer: &Tracer,
    op: u64,
    parent: Option<SpanId>,
) -> Result<CycleOutput, IdgError> {
    let ds = &r.ds;
    let obs = &ds.obs;
    let (proxy, plan) = (&r.proxy, &r.plan);
    let clean = clean_params();
    let weight = plan.nr_gridded_visibilities();
    let psf = tracer.span("imaging.psf", parent, op, |_| {
        psf_image(proxy, plan, &ds.uvw, &ds.aterms)
    })?;

    let mut components: Vec<CleanComponent> = Vec::new();
    let mut residual_vis = ds.visibilities.clone();
    let mut residual_rms = Vec::new();
    for _ in 0..spec.major_cycles {
        let (grid, _) = tracer.span("core.grid", parent, op, |_| {
            proxy.grid(plan, &ds.uvw, &residual_vis, &ds.aterms)
        })?;
        let mut working = tracer.span("imaging.dirty", parent, op, |_| {
            dirty_image(&grid, obs, weight)
        });
        residual_rms.push(working.rms_inner(0.1));
        let found = tracer.span("imaging.clean", parent, op, |_| {
            hogbom_clean(&mut working, &psf, &clean)
        });
        if found.is_empty() {
            break;
        }
        for c in found {
            match components.iter_mut().find(|e| e.x == c.x && e.y == c.y) {
                Some(existing) => existing.flux += c.flux,
                None => components.push(c),
            }
        }
        let model_grid = tracer.span("imaging.model_grid", parent, op, |_| {
            model_grid_from_image(&components_to_image(&components, obs.grid_size), obs)
        });
        let (predicted, _) = tracer.span("core.degrid", parent, op, |_| {
            proxy.degrid(plan, &model_grid, &ds.uvw, &ds.aterms)
        })?;
        residual_vis = ds
            .visibilities
            .iter()
            .zip(&predicted)
            .map(|(d, p)| d.sub(*p))
            .collect();
    }
    let (grid, _) = tracer.span("core.grid", parent, op, |_| {
        proxy.grid(plan, &ds.uvw, &residual_vis, &ds.aterms)
    })?;
    let residual = tracer.span("imaging.dirty", parent, op, |_| {
        dirty_image(&grid, obs, weight)
    });
    residual_rms.push(residual.rms_inner(0.1));
    Ok(CycleOutput {
        components,
        residual_rms,
        residual,
    })
}

/// One imaging step on a workload that does not image in its op: the
/// PSF, the dirty image of `grid`, CLEAN and the model grid.
pub fn imaging_step(
    r: &Ready,
    grid: &Grid<f32>,
    tracer: &Tracer,
    op: u64,
    parent: Option<SpanId>,
) -> Result<usize, IdgError> {
    let ds = &r.ds;
    let obs = &ds.obs;
    let psf = tracer.span("imaging.psf", parent, op, |_| {
        psf_image(&r.proxy, &r.plan, &ds.uvw, &ds.aterms)
    })?;
    let mut working = tracer.span("imaging.dirty", parent, op, |_| {
        dirty_image(grid, obs, r.plan.nr_gridded_visibilities())
    });
    let found = tracer.span("imaging.clean", parent, op, |_| {
        hogbom_clean(&mut working, &psf, &clean_params())
    });
    tracer.span("imaging.model_grid", parent, op, |_| {
        model_grid_from_image(&components_to_image(&found, obs.grid_size), obs)
    });
    Ok(found.len())
}
