//! Per-layer metrics of a traced run: the traced op (the untraced op
//! and the layer chains that reproduce it), the probe of the layers an
//! op does not reach, and the metrics computed from their spans.

use crate::checks::{check_passes, check_residual_falls, same_cycle, Expected};
use crate::ops::{
    imaging_chain, imaging_step, oneshot_calls, oneshot_chain, run_op, streamed_calls,
    streamed_chain, timed, CycleOutput, Passes,
};
use crate::report::{Metric, Samples, Shape};
use crate::stats::median;
use crate::trace::{Span, Tracer};
use crate::workloads::{OpKind, Ready, Spec};
use idg::stream::StreamStats;
use idg::{Cf32, IdgError};
use idg_fft::{Direction, Fft2d};
use idg_perf::{degridder_counts, gridder_counts};

/// Grid edge of the standalone grid-FFT probe (`fft.grid_s`).
const FFT_PROBE_SIZE: usize = 1024;

/// Sum of the durations of `op`'s spans named `name`.
fn span_sum(spans: &[Span], op: u64, name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.op == op && s.name == name)
        .map(Span::seconds)
        .sum()
}

/// Names of the kernel-layer spans a grid + degrid chain records.
const KERNEL_SPANS: [(&str, &str); 6] = [
    ("kernels.gridder", "kernels.gridder.busy_s"),
    ("kernels.subgrid_fft.fwd", "kernels.subgrid_fft.fwd_s"),
    ("kernels.adder", "kernels.adder.busy_s"),
    ("kernels.splitter", "kernels.splitter.busy_s"),
    ("kernels.subgrid_fft.inv", "kernels.subgrid_fft.inv_s"),
    ("kernels.degridder", "kernels.degridder.busy_s"),
];

/// Kernel busy times of `op`; returns their sum.
fn kernel_layers(spans: &[Span], op: u64, out: &mut Samples) -> f64 {
    KERNEL_SPANS
        .iter()
        .map(|(span, metric)| {
            let s = span_sum(spans, op, span);
            out.push(metric, s);
            s
        })
        .sum()
}

/// Kernel busy times and the proxy's overhead of a one-shot chain,
/// against the untraced one-shot `calls` on the same inputs.
fn oneshot_layers(spans: &[Span], op: u64, calls: &Passes, out: &mut Samples) {
    let busy = kernel_layers(spans, op, out);
    let wall = calls.grid_s + calls.degrid_s;
    out.push("call.oneshot_s", wall);
    out.push("core.proxy.overhead_s", wall - busy);
}

/// Kernel busy times, commit time and scheduler counts of a streamed
/// chain, with the untraced streamed `calls` on the same inputs.
fn streamed_layers(
    spans: &[Span],
    op: u64,
    calls: &Passes,
    stats: &[StreamStats; 2],
    out: &mut Samples,
) {
    kernel_layers(spans, op, out);
    out.push("call.streamed_s", calls.grid_s + calls.degrid_s);
    out.push("stream.commit_s", span_sum(spans, op, "stream.commit"));
    let total = |f: fn(&StreamStats) -> f64| stats.iter().map(f).sum::<f64>();
    out.push(
        "stream.backpressure_waits",
        total(|s| s.backpressure_waits as f64),
    );
    out.push("stream.failed_chunks", total(|s| s.failed_chunks as f64));
    out.push(
        "stream.inflight_max",
        stats
            .iter()
            .map(|s| s.inflight_max as f64)
            .fold(0.0, f64::max),
    );
}

fn imaging_layers(spans: &[Span], op: u64, components: usize, out: &mut Samples) {
    for (span, metric) in [
        ("imaging.psf", "imaging.psf_s"),
        ("imaging.dirty", "imaging.dirty_s"),
        ("imaging.clean", "imaging.clean_s"),
        ("imaging.model_grid", "imaging.model_grid_s"),
    ] {
        out.push(metric, span_sum(spans, op, span));
    }
    out.push("imaging.clean_components", components as f64);
}

/// What a traced op's layer chains produced.
struct Chains {
    passes: Passes,
    stream: Option<[StreamStats; 2]>,
    cycle: Option<CycleOutput>,
}

/// The layer chains that reproduce the workload's op.
fn run_chains(r: &Ready, spec: &Spec, tracer: &Tracer, op: u64) -> Result<Chains, IdgError> {
    tracer.span("op", None, op, |p| match spec.op {
        OpKind::Streamed => {
            let (passes, stats) = streamed_chain(r, tracer, op, p)?;
            Ok(Chains {
                passes,
                stream: Some(stats),
                cycle: None,
            })
        }
        OpKind::OneShot => Ok(Chains {
            passes: oneshot_chain(r, tracer, op, p)?,
            stream: None,
            cycle: None,
        }),
        OpKind::Imaging => {
            let cycle = imaging_chain(r, spec, tracer, op, p)?;
            Ok(Chains {
                passes: oneshot_chain(r, tracer, op, p)?,
                stream: None,
                cycle: Some(cycle),
            })
        }
    })
}

/// One traced op: the untraced op and the layer chains that reproduce
/// it, checked against each other bit for bit. The two alternate which
/// runs first, so allocator and cache warm-up do not favour one side of
/// `trace.overhead_s`.
pub fn traced_op(
    r: &Ready,
    spec: &Spec,
    exp: &Expected,
    tracer: &Tracer,
    op: u64,
    out: &mut Samples,
) -> Result<(), String> {
    let run_untraced = || timed(|| run_op(r, spec));
    let run_traced = || timed(|| run_chains(r, spec, tracer, op));
    let ((untraced, untraced_s), (chains, traced_s)) = if op.is_multiple_of(2) {
        let u = run_untraced();
        (u, run_traced())
    } else {
        let t = run_traced();
        (run_untraced(), t)
    };
    let (untraced, chains) = (
        untraced.map_err(|e| e.to_string())?,
        chains.map_err(|e| e.to_string())?,
    );
    check_passes(&untraced.passes, exp)?;
    check_passes(&chains.passes, exp)?;
    if let (Some(a), Some(b)) = (&untraced.cycle, &chains.cycle) {
        check_residual_falls(&a.residual_rms, spec.major_cycles)?;
        same_cycle(a, b)?;
    }

    let spans = tracer.spans();
    out.push("trace.overhead_s", traced_s - untraced_s);
    match &chains.stream {
        Some(stats) => streamed_layers(&spans, op, &untraced.passes, stats, out),
        None => oneshot_layers(&spans, op, &untraced.passes, out),
    }
    if let Some(cycle) = &chains.cycle {
        imaging_layers(&spans, op, cycle.components.len(), out);
    }
    Ok(())
}

/// Once per traced run: the layers the workload's op does not reach,
/// measured on its inputs, and the standalone grid FFT.
pub fn probe_op(
    r: &Ready,
    spec: &Spec,
    exp: &Expected,
    tracer: &Tracer,
    seed: u64,
    op: u64,
    out: &mut Samples,
) -> Result<(), String> {
    let e = |e: IdgError| e.to_string();
    if spec.op == OpKind::Streamed {
        let calls = oneshot_calls(r).map_err(e)?;
        let chain = oneshot_chain(r, tracer, op, None).map_err(e)?;
        check_passes(&calls, exp)?;
        check_passes(&chain, exp)?;
        oneshot_layers(&tracer.spans(), op, &calls, out);
    } else {
        let (calls, _) = streamed_calls(r).map_err(e)?;
        let (chain, stats) = streamed_chain(r, tracer, op, None).map_err(e)?;
        check_passes(&calls, exp)?;
        check_passes(&chain, exp)?;
        streamed_layers(&tracer.spans(), op, &calls, &stats, out);
    }
    if spec.op != OpKind::Imaging {
        let components = imaging_step(r, &exp.grid, tracer, op, None).map_err(e)?;
        imaging_layers(&tracer.spans(), op, components, out);
    }
    let fft = Fft2d::<f32>::new(FFT_PROBE_SIZE);
    let mut plane: Vec<Cf32> = (0..FFT_PROBE_SIZE * FFT_PROBE_SIZE)
        .map(|i| {
            let x = (i as u64 ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            Cf32::new(
                (x >> 40) as f32 / 16_777_216.0,
                (x & 0xFF_FFFF) as f32 / 16_777_216.0,
            )
        })
        .collect();
    for direction in [Direction::Forward, Direction::Inverse, Direction::Forward] {
        let ((), s) = timed(|| {
            tracer.span("fft.grid", None, op, |_| {
                fft.process_grid(&mut plane, direction);
            });
        });
        out.push("fft.grid_s", s);
    }
    Ok(())
}

pub fn layer_metrics(
    r: &Ready,
    shape: &Shape,
    tracer: &Tracer,
    layers: &Samples,
    probe: &Samples,
    setup_s: &[f64],
) -> Vec<Metric> {
    // the workload's own op where it reaches the layer, else the probe
    let layer = |key: &str| {
        layers
            .median(key)
            .or_else(|| probe.median(key))
            .unwrap_or(0.0)
    };
    let spans = tracer.spans();
    let per_setup = |name: &str| -> f64 {
        let v: Vec<f64> = (0..setup_s.len() as u64)
            .map(|op| span_sum(&spans, op, name))
            .collect();
        median(&v)
    };
    let n = r.ds.obs.subgrid_size;
    let items = &r.plan.items;
    let gridded = r.plan.nr_gridded_visibilities() as f64;
    let pixel_vis = gridded * (n * n) as f64;
    let g = gridder_counts(items, n);
    let d = degridder_counts(items, n);
    let cache = r.proxy.kernel_cache();
    let lookups = (cache.hits() + cache.misses()).max(1) as f64;
    vec![
        Metric::new("telescope.simulate_s", "s", per_setup("telescope.simulate")),
        Metric::new("plan.create_s", "s", per_setup("plan.create")),
        Metric::new("plan.work_items", "count", items.len() as f64),
        Metric::new(
            "plan.vis_per_subgrid",
            "vis",
            gridded / items.len().max(1) as f64,
        ),
        Metric::new("plan.gridded_ratio", "ratio", gridded / shape.vis as f64),
        Metric::new(
            "kernels.gridder.busy_s",
            "s",
            layer("kernels.gridder.busy_s"),
        ),
        Metric::new(
            "kernels.gridder.ns_per_pixel_vis",
            "ns",
            layer("kernels.gridder.busy_s") * 1e9 / pixel_vis,
        ),
        Metric::new(
            "kernels.gridder.sincos_pairs",
            "count",
            g.sincos_pairs as f64,
        ),
        Metric::new("kernels.gridder.fmas", "count", g.fmas as f64),
        Metric::new(
            "kernels.gridder.dram_bytes_computed",
            "B",
            g.dram_bytes as f64,
        ),
        Metric::new(
            "kernels.degridder.busy_s",
            "s",
            layer("kernels.degridder.busy_s"),
        ),
        Metric::new(
            "kernels.degridder.ns_per_pixel_vis",
            "ns",
            layer("kernels.degridder.busy_s") * 1e9 / pixel_vis,
        ),
        Metric::new(
            "kernels.degridder.sincos_pairs",
            "count",
            d.sincos_pairs as f64,
        ),
        Metric::new("kernels.degridder.fmas", "count", d.fmas as f64),
        Metric::new(
            "kernels.degridder.dram_bytes_computed",
            "B",
            d.dram_bytes as f64,
        ),
        Metric::new(
            "kernels.subgrid_fft.fwd_s",
            "s",
            layer("kernels.subgrid_fft.fwd_s"),
        ),
        Metric::new(
            "kernels.subgrid_fft.inv_s",
            "s",
            layer("kernels.subgrid_fft.inv_s"),
        ),
        Metric::new("kernels.subgrid_fft.subgrids", "count", items.len() as f64),
        Metric::new("kernels.adder.busy_s", "s", layer("kernels.adder.busy_s")),
        Metric::new(
            "kernels.splitter.busy_s",
            "s",
            layer("kernels.splitter.busy_s"),
        ),
        Metric::new(
            "kernels.cache.hit_ratio",
            "ratio",
            cache.hits() as f64 / lookups,
        ),
        Metric::new("core.proxy.overhead_s", "s", layer("core.proxy.overhead_s")),
        Metric::new(
            "stream.overhead_s",
            "s",
            layer("call.streamed_s") - layer("call.oneshot_s"),
        ),
        Metric::new(
            "stream.backpressure_waits",
            "count",
            layer("stream.backpressure_waits"),
        ),
        Metric::new("stream.inflight_max", "count", layer("stream.inflight_max")),
        Metric::new(
            "stream.failed_chunks",
            "count",
            layer("stream.failed_chunks"),
        ),
        Metric::new("stream.commit_s", "s", layer("stream.commit_s")),
        Metric::new("stream.pending_mib_computed", "MiB", shape.pending_mib()),
        Metric::new("fft.grid_s", "s", layer("fft.grid_s")),
        Metric::new("imaging.psf_s", "s", layer("imaging.psf_s")),
        Metric::new("imaging.dirty_s", "s", layer("imaging.dirty_s")),
        Metric::new("imaging.model_grid_s", "s", layer("imaging.model_grid_s")),
        Metric::new("imaging.clean_s", "s", layer("imaging.clean_s")),
        Metric::new(
            "imaging.clean_components",
            "count",
            layer("imaging.clean_components"),
        ),
        Metric::new("trace.overhead_s", "s", layer("trace.overhead_s")),
    ]
}
