//! Outside-in span recorder for the traced run.
//!
//! Spans are taken around the public library calls the benchmark makes
//! (never inside the library): name, start, end, parent span and request
//! id. They stay in memory and are written once, at the end, as a Chrome
//! `trace_event` JSON file that Perfetto and `chrome://tracing` load.
//! A disabled recorder costs one branch per call site, so the untraced
//! and traced runs share one code path.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

/// One closed (or still open) span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn dur(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Handle of an open span; `None` when recording is off.
pub type SpanId = Option<usize>;

pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, request: u64) -> SpanId {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.epoch.elapsed(),
            end: Duration::ZERO,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        if let Some(id) = id {
            self.spans[id].end = self.epoch.elapsed();
            let top = self.open.pop();
            assert_eq!(top, Some(id), "spans must close innermost first");
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's duration minus the part its direct children cover.
    /// Children on one thread never overlap, so that is a plain sum.
    pub fn self_times(&self) -> Vec<Duration> {
        let mut own: Vec<Duration> = self.spans.iter().map(Span::dur).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur());
            }
        }
        own
    }

    /// Writes the spans as Chrome `trace_event` JSON (complete "X"
    /// events in µs; ids, parents, requests and self time in `args`).
    pub fn write_chrome(&self, path: &Path, process: &str) -> io::Result<()> {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{{\"name\":\"{process}\"}}}}"
        );
        for (i, (s, own)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                ",\n{{\"name\":\"{}\",\"cat\":\"mfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\
                 \"request\":{},\"self_us\":{:.3}}}}}",
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.dur().as_secs_f64() * 1e6,
                s.request,
                own.as_secs_f64() * 1e6
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_parents_and_self_time() {
        let mut t = Tracer::new(true);
        let outer = t.begin("request", 7);
        let inner = t.begin("solve", 7);
        std::thread::sleep(Duration::from_millis(2));
        t.end(inner);
        t.end(outer);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].request, 7);
        let own = t.self_times();
        assert_eq!(own[0], s[0].dur() - s[1].dur());
        assert_eq!(own[1], s[1].dur());
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("request", 1);
        assert!(id.is_none());
        t.end(id);
        assert!(t.spans().is_empty());
    }
}
