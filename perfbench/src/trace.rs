//! In-memory span recorder.
//!
//! Spans are opened only by the benchmark, around its own calls into
//! the layers; the program under test records nothing. A disabled
//! tracer runs the closure and records nothing, so set-up code is
//! shared by traced and untraced runs.

use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span (its position in the record).
pub type SpanId = usize;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
    pub parent: Option<SpanId>,
    pub op: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end_s - self.start_s
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Run `f` inside a span named `name`; `f` receives the span's id
    /// to parent nested spans (also from other threads).
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        if !self.enabled {
            return f(None);
        }
        let id = {
            let mut spans = self.spans.lock().expect("span record lock poisoned");
            spans.push(Span {
                name,
                start_s: self.origin.elapsed().as_secs_f64(),
                end_s: f64::NAN,
                parent,
                op,
            });
            spans.len() - 1
        };
        let out = f(Some(id));
        let end = self.origin.elapsed().as_secs_f64();
        self.spans.lock().expect("span record lock poisoned")[id].end_s = end;
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span record lock poisoned")
            .clone()
    }
}
