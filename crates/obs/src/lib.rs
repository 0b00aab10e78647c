//! Observability layer for the IDG pipeline: structured spans and
//! self-validating operation counters.
//!
//! The layer is **zero-cost when disabled** (the default). Every
//! recording site in `kernels`, `plan`, `core` and `gpusim` first
//! looks up the calling thread's current session and returns
//! immediately when there is none, so uninstrumented runs never take a
//! lock, never allocate, and — critically — never perturb the
//! numerical pipeline: observability only *reads* loop trip counts, it
//! does not change execution order.
//!
//! A [`Session`] becomes the current recorder of the thread that
//! begins it. While it is alive, the instrumented call sites on that
//! thread accumulate:
//!
//! - **spans** — hierarchical intervals (`pass` → `job` → `stage` →
//!   `kernel`) carrying either wall-clock time (CPU back-ends, measured
//!   with [`std::time::Instant`]) or modeled time (GPU back-ends,
//!   replayed from the pipeline simulator's deterministic timeline);
//! - **counters** — per-stage integer registers (sincos pairs, FMAs,
//!   DRAM/shared bytes, visibilities, subgrids, retries, fallback
//!   jobs) incremented *at the kernel call sites with the actual loop
//!   lengths*, so they measure what the kernels really did rather than
//!   what an analytic model predicts they should have done.
//!
//! A session is scoped to the threads that do its pass: the thread
//! that began it, plus every worker started through [`entering`],
//! which carries the spawning thread's session onto the worker. Any
//! other thread records into its own session, or nowhere, so passes
//! observed concurrently on different threads never mix their counts,
//! and unobserved passes never leak into an observed one.
//!
//! [`Session::finish`] returns a [`Trace`] bundling the spans with a
//! flat [`MetricsSnapshot`]. The snapshot is what `idg` cross-validates
//! against the analytic `perf::ops` model (exact integer equality on
//! fault-free runs), and [`chrome::chrome_trace_json`] exports the
//! spans as a Chrome `trace_event` timeline for `chrome://tracing`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod chrome;
pub mod counters;
pub mod span;

pub use chrome::{chrome_trace_json, normalized_events, validate_json};
pub use counters::{KernelCounters, KernelStage, MetricsSnapshot};
pub use span::{Clock, Span};

use idg_sync::Mutex;
use std::cell::RefCell;
use std::sync::{Arc, Weak};
use std::time::Instant;

/// Everything one session accumulates.
#[derive(Debug)]
struct Recorder {
    start: Instant,
    spans: Vec<Span>,
    metrics: MetricsSnapshot,
}

/// A thread's handle on a session's recorder. Weak, so a session that
/// is finished or dropped stops recording everywhere at once.
type Handle = Weak<Mutex<Recorder>>;

thread_local! {
    /// The session the calling thread records into, if any.
    static CURRENT: RefCell<Option<Handle>> = const { RefCell::new(None) };
}

/// A finished observability session: the spans recorded while it was
/// active plus the flat counter snapshot.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Label of the pass that was traced (e.g. `"gridding"`).
    pub pass: String,
    /// All recorded spans, in completion order.
    pub spans: Vec<Span>,
    /// Flat per-stage counter snapshot.
    pub metrics: MetricsSnapshot,
}

/// Whether the calling thread is recording into a live session.
///
/// This is the single check every recording site performs first: a
/// thread-local lookup, so disabled-mode overhead is one predictable
/// branch.
#[inline]
pub fn is_active() -> bool {
    CURRENT.with(|c| c.borrow().as_ref().is_some_and(|h| h.strong_count() > 0))
}

/// The calling thread's live recorder, if any.
fn current() -> Option<Arc<Mutex<Recorder>>> {
    CURRENT.with(|c| c.borrow().as_ref().and_then(Weak::upgrade))
}

fn enter(handle: Option<Handle>) {
    CURRENT.with(|c| *c.borrow_mut() = handle);
}

/// Wrap `f` so that, on whichever thread it runs, it records into the
/// session current on the thread calling `entering` (or records
/// nothing, when that thread has none).
///
/// This is how a pass's work keeps its session when it leaves the
/// thread: wrap the per-worker `init` of a parallel iterator, or the
/// body of a spawned worker, at the point where the work is handed
/// off.
pub fn entering<T>(f: impl Fn() -> T + Send + Sync) -> impl Fn() -> T + Send + Sync {
    let handle = CURRENT.with(|c| c.borrow().clone());
    move || {
        enter(handle.clone());
        f()
    }
}

/// An active observability session.
///
/// Finishing or dropping the session ends recording on every thread
/// that entered it; a dropped session's data is discarded.
pub struct Session {
    recorder: Arc<Mutex<Recorder>>,
}

impl Session {
    /// Make a new session, labelled `pass`, the calling thread's
    /// current recorder (replacing any session it already had).
    pub fn begin(pass: &str) -> Session {
        let recorder = Arc::new(Mutex::new(Recorder {
            start: Instant::now(),
            spans: Vec::new(),
            metrics: MetricsSnapshot::new(pass),
        }));
        enter(Some(Arc::downgrade(&recorder)));
        Session { recorder }
    }

    /// Stop recording and return everything that was collected.
    ///
    /// A closing `pass`-category wall span covering the whole session
    /// is appended before the trace is sealed.
    pub fn finish(self) -> Trace {
        let mut r = self.recorder.lock();
        let metrics = std::mem::take(&mut r.metrics);
        let mut spans = std::mem::take(&mut r.spans);
        spans.push(Span {
            name: metrics.pass.clone(),
            cat: "pass".to_string(),
            job: None,
            lane: 0,
            clock: Clock::Wall,
            start_us: 0,
            dur_us: r.start.elapsed().as_micros() as u64,
        });
        Trace {
            pass: metrics.pass.clone(),
            spans,
            metrics,
        }
    }
}

fn with_recorder(f: impl FnOnce(&mut Recorder)) {
    if let Some(rec) = current() {
        f(&mut rec.lock());
    }
}

/// Merge a kernel tally (accumulated locally inside a kernel at its
/// real call sites) into the active session's counters. No-op when
/// disabled. u64 addition is commutative, so concurrent flushes from
/// rayon workers produce order-independent totals.
pub fn add_kernel(stage: KernelStage, tally: &KernelCounters) {
    with_recorder(|c| c.metrics.kernel_mut(stage).add(tally));
}

/// Record `n` subgrids pushed through the forward subgrid FFT.
pub fn add_subgrids_fft(n: u64) {
    with_recorder(|c| c.metrics.subgrids_fft += n);
}

/// Record `n` subgrids pushed through the inverse subgrid FFT.
pub fn add_subgrids_ifft(n: u64) {
    with_recorder(|c| c.metrics.subgrids_ifft += n);
}

/// Record `n` subgrids added onto the master grid.
pub fn add_subgrids_added(n: u64) {
    with_recorder(|c| c.metrics.subgrids_added += n);
}

/// Record `n` subgrids extracted from the master grid by the splitter.
pub fn add_subgrids_split(n: u64) {
    with_recorder(|c| c.metrics.subgrids_split += n);
}

/// Record `n` work items emitted by the planner.
pub fn add_planned_items(n: u64) {
    with_recorder(|c| c.metrics.planned_items += n);
}

/// Record `n` visibilities the planner skipped (outside the grid).
pub fn add_skipped_visibilities(n: u64) {
    with_recorder(|c| c.metrics.skipped_visibilities += n);
}

/// Record `n` retried device operations.
pub fn add_retries(n: u64) {
    with_recorder(|c| c.metrics.nr_retries += n);
}

/// Record `n` jobs that fell back to the CPU reference path.
pub fn add_fallback_jobs(n: u64) {
    with_recorder(|c| c.metrics.fallback_jobs += n);
}

/// Record `n` kernel-cache lookups served from an existing table.
pub fn add_cache_hits(n: u64) {
    with_recorder(|c| c.metrics.cache_hits += n);
}

/// Record `n` kernel-cache lookups that had to build their table.
pub fn add_cache_misses(n: u64) {
    with_recorder(|c| c.metrics.cache_misses += n);
}

/// Record `n` job outcomes observed by per-device health trackers.
pub fn add_health_outcomes(n: u64) {
    with_recorder(|c| c.metrics.health_outcomes += n);
}

/// Record `n` circuit-breaker trips (`Closed → Open` transitions).
pub fn add_breaker_trips(n: u64) {
    with_recorder(|c| c.metrics.breaker_trips += n);
}

/// Record `n` degradation-ladder steps taken after device OOM.
pub fn add_degradation_steps(n: u64) {
    with_recorder(|c| c.metrics.degradation_steps += n);
}

/// Record `n` jobs re-dispatched from a tripped device to a peer.
pub fn add_redispatched_jobs(n: u64) {
    with_recorder(|c| c.metrics.redispatched_jobs += n);
}

/// Record `n` chunks admitted by the streaming scheduler.
pub fn add_chunks_ingested(n: u64) {
    with_recorder(|c| c.metrics.chunks_ingested += n);
}

/// Record `n` window-constrained admissions (streaming backpressure).
pub fn add_backpressure_waits(n: u64) {
    with_recorder(|c| c.metrics.backpressure_waits += n);
}

/// Record a scheduler run's peak in-flight pass count (max-merged:
/// the snapshot keeps the largest peak seen in the session).
pub fn record_passes_inflight(n: u64) {
    with_recorder(|c| c.metrics.passes_inflight_max = c.metrics.passes_inflight_max.max(n));
}

/// Record a span with *modeled* time (seconds on the device model's
/// clock, converted to integer microseconds — fully deterministic).
/// Both *endpoints* are rounded (rather than start and duration
/// independently) so that nesting in model time survives the integer
/// conversion: a span contained in another stays contained in µs.
pub fn modeled_span(name: &str, cat: &str, job: Option<u32>, lane: u32, start_s: f64, dur_s: f64) {
    let start_us = (start_s * 1e6).round().max(0.0) as u64;
    let end_us = ((start_s + dur_s) * 1e6).round().max(0.0) as u64;
    with_recorder(|c| {
        c.spans.push(Span {
            name: name.to_string(),
            cat: cat.to_string(),
            job,
            lane,
            clock: Clock::Modeled,
            start_us,
            dur_us: end_us.saturating_sub(start_us),
        });
    });
}

/// Start a wall-clock span; the span is recorded, when the returned
/// guard is dropped, into the session that was current when it began.
/// Returns a no-op guard when disabled.
pub fn wall_span(name: &'static str, cat: &'static str, job: Option<u32>) -> WallSpanGuard {
    WallSpanGuard {
        name,
        cat,
        job,
        begun: current().map(|rec| (Arc::downgrade(&rec), Instant::now())),
    }
}

/// Guard recording a wall-clock span on drop (see [`wall_span`]).
#[must_use = "the span measures until the guard is dropped"]
pub struct WallSpanGuard {
    name: &'static str,
    cat: &'static str,
    job: Option<u32>,
    begun: Option<(Handle, Instant)>,
}

impl Drop for WallSpanGuard {
    fn drop(&mut self) {
        let Some((rec, begun)) = self.begun.take() else {
            return;
        };
        let Some(rec) = rec.upgrade() else { return };
        let mut c = rec.lock();
        let start_us = begun.duration_since(c.start).as_micros() as u64;
        c.spans.push(Span {
            name: self.name.to_string(),
            cat: self.cat.to_string(),
            job: self.job,
            lane: 0,
            clock: Clock::Wall,
            start_us,
            dur_us: begun.elapsed().as_micros() as u64,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sites_are_noops() {
        assert!(!is_active());
        add_retries(3);
        add_kernel(KernelStage::Gridder, &KernelCounters::default());
        modeled_span("x", "stage", None, 0, 0.0, 1.0);
        let _g = wall_span("y", "stage", None);
        // No session ⇒ nothing observable happened; beginning a fresh
        // session must see pristine counters.
        let s = Session::begin("check");
        let t = s.finish();
        assert_eq!(t.metrics.nr_retries, 0);
        assert_eq!(t.spans.len(), 1); // just the pass span
    }

    #[test]
    fn session_collects_counters_and_spans() {
        let s = Session::begin("gridding");
        let tally = KernelCounters {
            sincos_pairs: 10,
            fmas: 170,
            ..KernelCounters::default()
        };
        add_kernel(KernelStage::Gridder, &tally);
        add_kernel(KernelStage::Gridder, &tally);
        add_subgrids_fft(4);
        modeled_span("compute", "stage", Some(2), 1, 0.5, 0.25);
        drop(wall_span("gridder", "stage", Some(0)));
        let t = s.finish();
        assert_eq!(t.metrics.gridder.sincos_pairs, 20);
        assert_eq!(t.metrics.gridder.fmas, 340);
        assert_eq!(t.metrics.subgrids_fft, 4);
        let modeled: Vec<_> = t
            .spans
            .iter()
            .filter(|s| s.clock == Clock::Modeled)
            .collect();
        assert_eq!(modeled.len(), 1);
        assert_eq!(modeled[0].start_us, 500_000);
        assert_eq!(modeled[0].dur_us, 250_000);
        assert_eq!(t.spans.last().map(|s| s.cat.as_str()), Some("pass"));
        assert!(!is_active());
    }

    #[test]
    fn dropped_session_deactivates() {
        let s = Session::begin("abandoned");
        assert!(is_active());
        drop(s);
        assert!(!is_active());
        let t = Session::begin("next").finish();
        assert_eq!(t.pass, "next");
    }

    #[test]
    fn sessions_on_two_threads_see_only_their_own_records() {
        use std::sync::mpsc;
        use std::time::Duration;

        let (overlap, reached) = mpsc::channel();
        idg_sync::thread::scope(|scope| {
            let a = Session::begin("a");
            add_retries(1);
            let b = scope.spawn(move || {
                let b = Session::begin("b");
                add_retries(2);
                drop(wall_span("b-stage", "stage", None));
                let _ = overlap.send(());
                b.finish()
            });
            // both sessions are open from here until `a` finishes
            reached
                .recv_timeout(Duration::from_secs(30))
                .expect("a second session begins while the first is open");
            drop(wall_span("a-stage", "stage", None));
            let ta = a.finish();
            let tb = b.join().unwrap();
            assert_eq!((ta.metrics.nr_retries, tb.metrics.nr_retries), (1, 2));
            let names = |t: &Trace| t.spans.iter().map(|s| s.name.clone()).collect::<Vec<_>>();
            assert_eq!(names(&ta), ["a-stage", "a"]);
            assert_eq!(names(&tb), ["b-stage", "b"]);
        });
    }

    #[test]
    fn a_thread_without_a_session_records_nothing() {
        let s = Session::begin("observed");
        idg_sync::thread::scope(|scope| {
            scope.spawn(|| {
                assert!(!is_active());
                add_retries(5);
                add_kernel(
                    KernelStage::Gridder,
                    &KernelCounters {
                        fmas: 17,
                        ..KernelCounters::default()
                    },
                );
                modeled_span("x", "stage", None, 0, 0.0, 1.0);
                drop(wall_span("y", "stage", None));
            });
        });
        let t = s.finish();
        assert_eq!(t.metrics, MetricsSnapshot::new("observed"));
        assert_eq!(t.spans.len(), 1);
    }

    #[test]
    fn workers_entered_from_the_spawning_thread_record_into_its_session() {
        let s = Session::begin("pass");
        let entered = entering(|| add_retries(3));
        idg_sync::thread::scope(|scope| {
            scope.spawn(&entered);
            scope.spawn(&entered);
            // a plain worker does not inherit the session
            scope.spawn(|| add_retries(100));
        });
        assert_eq!(s.finish().metrics.nr_retries, 6);
    }

    #[test]
    fn wall_spans_record_into_the_session_they_began_in() {
        let first = Session::begin("first");
        let guard = wall_span("late", "stage", None);
        let t1 = first.finish();
        let second = Session::begin("second");
        drop(guard);
        let t2 = second.finish();
        assert_eq!(t1.spans.len(), 1);
        assert_eq!(
            t2.spans.len(),
            1,
            "the span belongs to the finished session"
        );
    }
}
