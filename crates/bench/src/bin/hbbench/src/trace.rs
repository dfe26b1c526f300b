//! In-memory spans recorded around the benchmark's calls into each
//! layer. Nothing inside the program under test is instrumented: a
//! span covers one public call, seen from outside.
//!
//! A disabled tracer never reads the clock, so the untraced runs that
//! produce the end-to-end metrics pay nothing for it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation (rep, ECO, request) the span belongs to.
    pub req: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; it nests inside the innermost open one.
    pub fn begin(&mut self, name: &'static str, req: u64) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let i = self.open.pop().expect("end() matches a begin()");
        self.spans[i].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        self.begin(name, req);
        let out = f();
        self.end();
        out
    }

    /// Records an already-measured interval (a reply timed on the wire).
    pub fn record(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent: self.open.last().copied(),
            req,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, in seconds, over the spans named `op`
    /// and everything nested in them: each span's duration minus the
    /// durations of its direct children. Also returns the summed
    /// duration of the `op` spans themselves.
    pub fn self_seconds_within(&self, op: &str) -> (f64, BTreeMap<&'static str, f64>) {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let inside = |mut i: usize| loop {
            if self.spans[i].name == op {
                return true;
            }
            match self.spans[i].parent {
                Some(p) => i = p,
                None => return false,
            }
        };
        let mut total = 0.0;
        let mut out = BTreeMap::new();
        for (i, (s, c)) in self.spans.iter().zip(&child_ns).enumerate() {
            if !inside(i) {
                continue;
            }
            if s.name == op {
                total += s.ns() as f64 * 1e-9;
            }
            *out.entry(s.name).or_insert(0.0) += s.ns().saturating_sub(*c) as f64 * 1e-9;
        }
        (total, out)
    }

    /// Mean duration in seconds of the spans called `name`, and how
    /// many there were.
    pub fn mean_seconds(&self, name: &str) -> (f64, usize) {
        let (sum, n) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0usize), |(sum, n), s| (sum + s.ns(), n + 1));
        if n == 0 {
            (0.0, 0)
        } else {
            (sum as f64 * 1e-9 / n as f64, n)
        }
    }

    /// The spans as a Chrome trace-event document (load it in Perfetto
    /// or `chrome://tracing`).
    pub fn to_chrome_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"traceEvents\": ["
        );
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{}\n{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
                 \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"args\": {{\"id\": {i}, \"parent\": {parent}, \"req\": {}}}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.start_ns as f64 / 1e3,
                s.ns() as f64 / 1e3,
                s.req
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("inner", 0, || ());
        t.begin("outer", 0);
        t.span("inner", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end();
        let (total, own) = t.self_seconds_within("outer");
        let inner = t.spans()[2].ns() as f64 * 1e-9;
        assert!(inner >= 0.002);
        assert_eq!(total, t.spans()[1].ns() as f64 * 1e-9);
        assert!((own["outer"] - (total - inner)).abs() < 1e-9);
        assert_eq!(
            own["inner"], inner,
            "the span outside `outer` is not counted"
        );
        assert_eq!(t.spans()[2].parent, Some(1));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.span("x", 1, || ());
        assert!(t.spans().is_empty());
    }
}
