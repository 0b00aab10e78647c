//! Wall-clock benchmark guard.
//!
//! Runs the measured host pass (`host_measured_run`, optimized CPU
//! kernels under an observability session) at the current
//! `IDG_BENCH_SCALE`, exports `results/BENCH_gridder.json` and
//! `results/BENCH_degridder.json` (the wall-clock `kernel-cache` row
//! plus a deterministic modeled `fleet` row carrying the degraded-mode
//! accounting), and compares the measured wall-clock against the
//! committed baselines under `crates/bench/baselines/`.
//!
//! Exit is non-zero when either pass regresses by more than the
//! tolerance (`IDG_BENCH_TOLERANCE`, default 0.20 = 20%) against the
//! baseline's `kernel-cache` row at the same scale. Every row records
//! whether its build had compile-time FMA (`fma` column, 0/1): the
//! guard compares only against a row built like itself, and exits
//! non-zero when the baseline has rows at this scale but none with
//! this build's `fma` value. Scales with no committed baseline row
//! only report (first runs on a new scale are not failures).
//! `IDG_BENCH_BASELINE_DIR` overrides the baseline directory (the CI
//! smoke points it at a runner-local warmup export so the guard
//! compares like with like instead of against another machine's
//! clock).

use idg_bench::{
    bench_json, bench_pass_row, bench_rows, bench_scale, benchmark_dataset, build_fma, row_value,
};

fn tolerance() -> f64 {
    std::env::var("IDG_BENCH_TOLERANCE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.20)
}

fn baseline_dir() -> std::path::PathBuf {
    std::env::var_os("IDG_BENCH_BASELINE_DIR").map_or_else(
        || std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("baselines"),
        std::path::PathBuf::from,
    )
}

fn main() {
    let scale = bench_scale();
    let tol = tolerance();
    let ds = benchmark_dataset(scale);
    let run = idg_bench::host_measured_run(&ds);
    // deterministic fleet run with one injected OOM: the exported
    // `fleet` row documents the degraded-mode accounting (devices,
    // re-dispatches, ladder rungs, breaker trips) at this scale
    let fleet = idg_bench::fleet_chaos_run(&ds);
    let fma = build_fma();

    let mut regressed = false;
    let mut mismatched = false;
    for (pass, report, fleet_report) in [
        ("gridder", &run.gridding, &fleet.gridding),
        ("degridder", &run.degridding, &fleet.degridding),
    ] {
        let mut measured = bench_pass_row("kernel-cache", scale, report);
        measured.values.push(("fma", fma));
        let rows = vec![measured, idg_bench::fleet_bench_row(scale, fleet_report)];
        let json = bench_json(pass, &rows, false);
        idg_obs::validate_json(&json).expect("BENCH export is valid JSON");
        let out = idg_bench::write_results(&format!("BENCH_{pass}.json"), &json)
            .expect("write BENCH export");
        println!(
            "{pass:<10} scale={scale} vis={} total_s={:.4} mvis_s={:.3} -> {}",
            report.counts.visibilities,
            report.total_seconds,
            report.mvis_per_sec(),
            out.display()
        );
        if let Some(stats) = &fleet_report.fleet {
            println!(
                "{pass:<10} fleet devices={} redispatched={} degradation_steps={} \
                 breaker_trips={} makespan_s={:.4}",
                stats.nr_devices,
                stats.redispatched_jobs,
                stats.degradation_steps,
                stats.breaker_trips,
                fleet_report.total_seconds
            );
        }

        let baseline_path = baseline_dir().join(format!("BENCH_{pass}.json"));
        let Ok(baseline) = std::fs::read_to_string(&baseline_path) else {
            println!(
                "{pass:<10} no committed baseline at {}",
                baseline_path.display()
            );
            continue;
        };
        idg_obs::validate_json(&baseline)
            .unwrap_or_else(|e| panic!("baseline {} invalid: {e}", baseline_path.display()));
        // only rows measured on a build with the same `fma` flag compare
        let like_built = |label| {
            bench_rows(&baseline, label, scale).find(|row| row_value(row, "fma") == Some(fma))
        };
        let Some(reference) =
            like_built("kernel-cache").and_then(|row| row_value(row, "total_s_wall"))
        else {
            let built: Vec<Option<f64>> = bench_rows(&baseline, "kernel-cache", scale)
                .map(|row| row_value(row, "fma"))
                .collect();
            if built.is_empty() {
                println!("{pass:<10} baseline has no kernel-cache row at scale {scale}; skipping");
            } else {
                mismatched = true;
                println!(
                    "{pass:<10} baseline kernel-cache rows at scale {scale} have fma={built:?}, \
                     this build has fma={fma}; refusing to compare across build flags"
                );
            }
            continue;
        };
        let ratio = report.total_seconds / reference;
        let verdict = if ratio > 1.0 + tol {
            regressed = true;
            "REGRESSION"
        } else {
            "ok"
        };
        println!(
            "{pass:<10} baseline_s={reference:.4} ratio={ratio:.3} (tolerance +{:.0}%) {verdict}",
            tol * 100.0
        );
        // the committed seed row documents what the kernel cache bought
        if let Some(seed) = like_built("seed").and_then(|row| row_value(row, "total_s_wall")) {
            println!(
                "{pass:<10} seed_s={seed:.4} speedup_vs_seed={:.2}x",
                seed / report.total_seconds
            );
        }
    }

    if mismatched {
        eprintln!("bench_guard: no baseline row built with this build's fma flag");
    }
    if regressed {
        eprintln!("bench_guard: wall-clock regression beyond tolerance");
    }
    if mismatched || regressed {
        std::process::exit(1);
    }
}
