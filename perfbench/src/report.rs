//! Results: the readable report, the results file and the last-line
//! JSON object.

use crate::checks::Tally;
use crate::stats::{median, tail};
use crate::trace::Span;
use crate::workloads::{stream_config, Ready, Spec};
use idg::stream::ChunkedDataset;
use idg_conformance::{StageBudget, StageError};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Self { name, unit, value }
    }
}

/// Named sample series, one value per op.
#[derive(Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, key: &'static str, value: f64) {
        self.0.entry(key).or_default().push(value);
    }

    pub fn median(&self, key: &str) -> Option<f64> {
        self.0.get(key).map(|v| median(v))
    }
}

/// The workload's shape, recorded with every result.
pub struct Shape {
    pub stations: usize,
    pub baselines: usize,
    pub timesteps: usize,
    pub channels: usize,
    pub grid_size: usize,
    pub subgrid_size: usize,
    pub vis: usize,
    pub subgrids: usize,
    pub chunks: usize,
    pub aterm_interval: usize,
    pub aterms: &'static str,
    pub major_cycles: usize,
}

impl Shape {
    pub fn of(spec: &Spec, r: &Ready) -> Result<Shape, String> {
        let obs = &r.ds.obs;
        let chunks =
            ChunkedDataset::split(obs, &stream_config().policy).map_err(|e| e.to_string())?;
        Ok(Shape {
            stations: obs.nr_stations,
            baselines: obs.nr_baselines(),
            timesteps: obs.nr_timesteps,
            channels: obs.nr_channels(),
            grid_size: obs.grid_size,
            subgrid_size: obs.subgrid_size,
            vis: obs.nr_visibilities(),
            subgrids: r.plan.nr_subgrids(),
            chunks: chunks.len(),
            aterm_interval: obs.aterm_interval,
            aterms: if spec.beam.is_some() {
                "gaussian-beam"
            } else {
                "identity"
            },
            major_cycles: spec.major_cycles,
        })
    }

    /// `stream.pending_mib_computed`: every subgrid is held until the
    /// streamed commit, 4 polarizations × N² × 8 B each.
    pub fn pending_mib(&self) -> f64 {
        let n2 = (self.subgrid_size * self.subgrid_size) as f64;
        self.subgrids as f64 * 4.0 * n2 * 8.0 / f64::from(1u32 << 20)
    }

    fn vis_per_subgrid(&self) -> f64 {
        self.vis as f64 / self.subgrids.max(1) as f64
    }

    fn fields(&self) -> Vec<(&'static str, String)> {
        vec![
            ("stations", self.stations.to_string()),
            ("baselines", self.baselines.to_string()),
            ("timesteps", self.timesteps.to_string()),
            ("channels", self.channels.to_string()),
            ("grid_size", self.grid_size.to_string()),
            ("subgrid_size", self.subgrid_size.to_string()),
            ("vis", self.vis.to_string()),
            ("subgrids", self.subgrids.to_string()),
            ("chunks", self.chunks.to_string()),
            ("vis_per_subgrid", num(self.vis_per_subgrid())),
            ("aterm_interval", self.aterm_interval.to_string()),
            ("aterms", quote(self.aterms)),
            ("major_cycles", self.major_cycles.to_string()),
        ]
    }
}

/// Build provenance: results of builds that differ in any field but
/// `commit` and `source_digest` are not compared (`compare.py`).
pub struct Build {
    pub commit: String,
    pub source_digest: String,
    pub rustc: &'static str,
    pub profile: &'static str,
    pub rustflags: &'static str,
    pub fma: bool,
    pub nproc: usize,
}

impl Build {
    pub fn current(commit: &str, source_digest: &str) -> Build {
        Build {
            commit: commit.to_string(),
            source_digest: source_digest.to_string(),
            rustc: env!("PERFBENCH_RUSTC"),
            profile: env!("PERFBENCH_PROFILE"),
            rustflags: env!("PERFBENCH_RUSTFLAGS"),
            fma: cfg!(target_feature = "fma"),
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
        }
    }

    fn fields(&self) -> Vec<(&'static str, String)> {
        vec![
            ("commit", quote(&self.commit)),
            ("source_digest", quote(&self.source_digest)),
            ("rustc", quote(self.rustc)),
            ("profile", quote(self.profile)),
            ("rustflags", quote(self.rustflags)),
            ("fma", self.fma.to_string()),
            ("nproc", self.nproc.to_string()),
        ]
    }
}

pub struct Run {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub shape: Shape,
    pub build: Build,
    pub metrics: Vec<Metric>,
    pub e2e: Samples,
    pub tally: Tally,
    pub reference_errors: (StageError, StageError),
    pub peak_reset: bool,
    pub setup_s: Vec<f64>,
    /// Set-ups, reference outputs and self-check, before the loop.
    pub prep_s: f64,
}

/// A JSON number with all its digits (`null` if not finite).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", quote(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn plain(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
    body.join(" ")
}

/// Timing series of the untraced ops, with the metric each feeds.
const SERIES: [(&str, &str); 3] = [
    ("grid_s", "grid pass"),
    ("degrid_s", "degrid pass"),
    ("op_s", "op"),
];

impl Run {
    pub fn correct(&self) -> bool {
        self.tally.failed == 0
            && self.tally.attempted > 0
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    fn series(&self, key: &str) -> Option<&[f64]> {
        self.e2e.0.get(key).map(Vec::as_slice)
    }

    pub fn print(&self) {
        println!(
            "perfbench workload={} seed={} seconds={} trace={} smoke={}",
            self.workload, self.seed, self.seconds, self.trace as u8, self.smoke
        );
        println!("shape: {}", plain(&self.shape.fields()));
        println!("build: {}", plain(&self.build.fields()));
        let budget = StageBudget::for_backend(idg::Backend::CpuOptimized);
        let (g, v) = self.reference_errors;
        println!(
            "check: one-shot vs CpuReference grid rms={:.3e} max={:.3e}, vis rms={:.3e} max={:.3e} \
             (budget rms<={:e} max<={:e}); self-check passed",
            g.rms, g.max, v.rms, v.max, budget.rms, budget.max
        );
        println!(
            "fail_ratio: {} ({} failed of {} attempted){}",
            self.tally.failed as f64 / self.tally.attempted.max(1) as f64,
            self.tally.failed,
            self.tally.attempted,
            self.tally
                .first_failure
                .as_ref()
                .map_or(String::new(), |e| format!("; first failure: {e}"))
        );
        for (key, what) in SERIES {
            if let Some(v) = self.series(key) {
                let tail = tail(v).map_or(
                    "no tail percentile (fewer than 11 samples)".into(),
                    |(p, t)| format!("p{p} {t:.6} s"),
                );
                println!("{what}: median {:.6} s, {tail}, n={}", median(v), v.len());
            }
        }
        println!(
            "set-up: median {:.6} s of {} set-ups; preparation before the loop {:.3} s",
            median(&self.setup_s),
            self.setup_s.len(),
            self.prep_s
        );
        for m in &self.metrics {
            println!("{:<40} {:>16} {}", m.name, num(m.value), m.unit);
        }
        if !self.trace {
            let pending = self.shape.pending_mib();
            println!(
                "peak_rss_mib is VmHWM {}; stream.pending_mib_computed {pending:.3} MiB",
                if self.peak_reset {
                    "since the reset before the first op"
                } else {
                    "since process start (the reset was refused)"
                }
            );
        }
    }

    /// The result's last line: `correct`, `attempted`, `failed` and
    /// every metric with its unit.
    pub fn result_line(&self) -> String {
        let metrics: Vec<(&str, String)> = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name,
                    object(&[("value", num(m.value)), ("unit", quote(m.unit))]),
                )
            })
            .collect();
        object(&[
            ("correct", self.correct().to_string()),
            ("attempted", self.tally.attempted.to_string()),
            ("failed", self.tally.failed.to_string()),
            ("metrics", object(&metrics)),
        ])
    }

    /// The full record (and, for traced runs, every span) under `dir`.
    pub fn write(&self, dir: &Path, spans: Option<&Vec<Span>>) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let stem = format!(
            "{}-seed{}-trace{}{}",
            self.workload,
            self.seed,
            self.trace as u8,
            if self.smoke { "-smoke" } else { "" }
        );
        let series: Vec<(&str, String)> = SERIES
            .iter()
            .filter_map(|(key, _)| {
                let v = self.series(key)?;
                let (p, t) = tail(v).map_or(("null".into(), "null".into()), |(p, t)| {
                    (p.to_string(), num(t))
                });
                let values: Vec<String> = v.iter().map(|x| num(*x)).collect();
                Some((
                    *key,
                    object(&[
                        ("n", v.len().to_string()),
                        ("median", num(median(v))),
                        ("tail_percentile", p),
                        ("tail", t),
                        ("values", format!("[{}]", values.join(", "))),
                    ]),
                ))
            })
            .collect();
        let metrics: Vec<(&str, String)> = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name,
                    object(&[("value", num(m.value)), ("unit", quote(m.unit))]),
                )
            })
            .collect();
        let record = object(&[
            ("workload", quote(self.workload)),
            ("seed", self.seed.to_string()),
            ("seconds", num(self.seconds)),
            ("trace", self.trace.to_string()),
            ("smoke", self.smoke.to_string()),
            ("shape", object(&self.shape.fields())),
            ("build", object(&self.build.fields())),
            ("correct", self.correct().to_string()),
            ("attempted", self.tally.attempted.to_string()),
            ("failed", self.tally.failed.to_string()),
            ("series", object(&series)),
            ("metrics", object(&metrics)),
        ]);
        std::fs::write(dir.join(format!("{stem}.json")), record + "\n")?;
        if let Some(spans) = spans {
            let rows: Vec<String> = spans
                .iter()
                .map(|s| {
                    object(&[
                        ("name", quote(s.name)),
                        ("start_s", num(s.start_s)),
                        ("end_s", num(s.end_s)),
                        ("parent", s.parent.map_or("null".into(), |p| p.to_string())),
                        ("op", s.op.to_string()),
                    ])
                })
                .collect();
            std::fs::write(
                dir.join(format!("{stem}-spans.json")),
                format!("[\n{}\n]\n", rows.join(",\n")),
            )?;
        }
        Ok(())
    }
}
