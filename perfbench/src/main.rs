//! The repository benchmark: closed-loop workloads on the tier-1 build,
//! checked outputs, end-to-end metrics (`--trace 0`) or per-layer
//! metrics from the benchmark's own spans (`--trace 1`).
//!
//! ```text
//! perfbench --workload stream|sparse|cycle --seed N --seconds S --trace 0|1
//!           [--smoke] [--out-dir DIR] [--commit ID] [--source-digest HEX]
//! ```
//!
//! Normally launched through `run.py`, which builds this package and
//! passes the build's source identity. The last line of standard output
//! is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`; the lines before it are the readable report (workload
//! shape, build, checks, sample counts and tail percentiles). See
//! METRICS.md for what each metric measures and which layer moves it.

mod checks;
mod layers;
mod mem;
mod ops;
mod report;
mod stats;
mod trace;
mod workloads;

use checks::{check_passes, check_residual_falls, self_check, Expected, Tally};
use idg::{Backend, Proxy};
use layers::{layer_metrics, probe_op, traced_op};
use ops::{oneshot_calls, run_op, timed};
use report::{Metric, Samples};
use stats::median;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use workloads::{set_up, Ready, Spec};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: u64 = 9;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out_dir: Option<PathBuf>,
    commit: String,
    source_digest: String,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = std::env::args().skip(1);
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut smoke = false;
        let mut out_dir = None;
        let mut commit = "unknown".to_string();
        let mut source_digest = "unknown".to_string();
        while let Some(flag) = args.next() {
            if flag == "--smoke" {
                smoke = true;
                continue;
            }
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err("--seconds must be positive".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    });
                }
                "--out-dir" => out_dir = Some(PathBuf::from(value)),
                "--commit" => commit = value,
                "--source-digest" => source_digest = value,
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            smoke,
            out_dir,
            commit,
            source_digest,
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = Spec::named(&args.workload, args.smoke) else {
        eprintln!(
            "perfbench: unknown workload {:?} (stream, sparse, cycle)",
            args.workload
        );
        return ExitCode::from(2);
    };
    match run(&args, &spec) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The one-shot and `CpuReference` outputs every op is checked against.
fn expected(r: &Ready) -> Result<Expected, String> {
    let ds = &r.ds;
    let oneshot = oneshot_calls(r).map_err(|e| format!("one-shot passes: {e}"))?;
    let reference = Proxy::new(Backend::CpuReference, ds.obs.clone()).map_err(|e| e.to_string())?;
    let (ref_grid, _) = reference
        .grid(&r.plan, &ds.uvw, &ds.visibilities, &ds.aterms)
        .map_err(|e| format!("reference grid: {e}"))?;
    let (ref_vis, _) = reference
        .degrid(&r.plan, &oneshot.grid, &ds.uvw, &ds.aterms)
        .map_err(|e| format!("reference degrid: {e}"))?;
    Ok(Expected {
        grid: oneshot.grid,
        vis: oneshot.vis,
        ref_grid,
        ref_vis,
    })
}

fn run(args: &Args, spec: &Spec) -> Result<(), String> {
    let t_prep = Instant::now();
    let tracer = Tracer::new(args.trace);
    let mut setup_s = Vec::new();
    let mut ready = None;
    for op in 0..SETUP_REPEATS {
        let (r, s) = timed(|| set_up(spec, args.seed, &tracer, op));
        setup_s.push(s);
        ready = Some(r.map_err(|e| format!("set-up: {e}"))?);
    }
    let r = ready.expect("at least one set-up");
    let exp = expected(&r)?;
    let reference_errors = checks::reference_errors(&exp.grid, &exp.vis, &exp);
    self_check(&exp, args.seed)?;

    let mut tally = Tally::default();
    let mut e2e = Samples::default();
    let mut layers = Samples::default();
    let mut probe = Samples::default();
    let prep_s = t_prep.elapsed().as_secs_f64();
    let peak_reset = mem::reset_peak();
    let t_run = Instant::now();
    let mut op = SETUP_REPEATS;
    let mut slowest_op = 0.0f64;
    // stop before an op would end past the window: runs last --seconds
    while op == SETUP_REPEATS || t_run.elapsed().as_secs_f64() + slowest_op <= args.seconds {
        let (outcome, s) = timed(|| {
            if args.trace {
                traced_op(&r, spec, &exp, &tracer, op, &mut layers)
            } else {
                plain_op(&r, spec, &exp, &mut e2e)
            }
        });
        slowest_op = slowest_op.max(s);
        tally.record(outcome);
        op += 1;
    }
    let peak_rss_mib = mem::peak_mib().ok_or("no VmHWM in /proc/self/status")?;
    if args.trace {
        tally.record(probe_op(&r, spec, &exp, &tracer, args.seed, op, &mut probe));
    }

    let shape = report::Shape::of(spec, &r)?;
    let metrics = if args.trace {
        layer_metrics(&r, &shape, &tracer, &layers, &probe, &setup_s)
    } else {
        end_to_end_metrics(&shape, &e2e, &setup_s, peak_rss_mib)
    };
    let build = report::Build::current(&args.commit, &args.source_digest);
    let run = report::Run {
        workload: spec.name,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
        shape,
        build,
        metrics,
        e2e,
        tally,
        reference_errors,
        peak_reset,
        setup_s,
        prep_s,
    };
    run.print();
    if let Some(dir) = &args.out_dir {
        let spans = args.trace.then(|| tracer.spans());
        run.write(dir, spans.as_ref())
            .map_err(|e| format!("writing results under {}: {e}", dir.display()))?;
    }
    println!("{}", run.result_line());
    Ok(())
}

/// One untraced op: time it, check it.
fn plain_op(r: &Ready, spec: &Spec, exp: &Expected, e2e: &mut Samples) -> Result<(), String> {
    let sample = run_op(r, spec).map_err(|e| e.to_string())?;
    check_passes(&sample.passes, exp)?;
    if let Some(cycle) = &sample.cycle {
        check_residual_falls(&cycle.residual_rms, spec.major_cycles)?;
    }
    e2e.push("grid_s", sample.passes.grid_s);
    e2e.push("degrid_s", sample.passes.degrid_s);
    e2e.push("op_s", sample.op_s);
    Ok(())
}

fn end_to_end_metrics(
    shape: &report::Shape,
    e2e: &Samples,
    setup_s: &[f64],
    peak_rss_mib: f64,
) -> Vec<Metric> {
    let vis = shape.vis as f64;
    let rate = |key| e2e.median(key).map_or(0.0, |s| vis / s / 1e6);
    vec![
        Metric::new("setup_s", "s", median(setup_s)),
        Metric::new("grid_mvis_s", "Mvis/s", rate("grid_s")),
        Metric::new("degrid_mvis_s", "Mvis/s", rate("degrid_s")),
        Metric::new("cycle_s", "s", e2e.median("op_s").unwrap_or(0.0)),
        Metric::new("peak_rss_mib", "MiB", peak_rss_mib),
    ]
}
