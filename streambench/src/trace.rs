//! Benchmark-side spans for the traced run: one span around each call
//! into a layer's public entry point, kept in memory and written at exit
//! as Chrome trace-event JSON (open it in `chrome://tracing` or
//! Perfetto).

use std::fmt::Write as _;
use std::time::Instant;

/// Call spans kept per run; slot and probe spans are always kept. The
/// cap bounds the file for microsecond-scale workloads, which make
/// hundreds of thousands of calls.
const MAX_CALL_SPANS: usize = 20_000;

struct Span {
    id: u64,
    parent: u64,
    name: &'static str,
    cat: &'static str,
    start: Instant,
    end: Instant,
}

/// The in-memory span log. Id 0 means "no parent".
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    next_id: u64,
    calls_kept: usize,
    calls_dropped: u64,
}

impl Default for Spans {
    /// An empty log whose timestamps count from now.
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            next_id: 1,
            calls_kept: 0,
            calls_dropped: 0,
        }
    }
}

impl Spans {
    /// Reserves an id for a span that will be recorded once it ends, so
    /// its children can name it as their parent.
    pub fn reserve(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Records a finished span under a reserved id.
    pub fn record(
        &mut self,
        id: u64,
        parent: u64,
        (cat, name): (&'static str, &'static str),
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            id,
            parent,
            name,
            cat,
            start,
            end,
        });
    }

    /// Records one call span, unless the per-run cap is reached.
    pub fn call(
        &mut self,
        parent: u64,
        label: (&'static str, &'static str),
        start: Instant,
        end: Instant,
    ) {
        if self.calls_kept >= MAX_CALL_SPANS {
            self.calls_dropped += 1;
            return;
        }
        self.calls_kept += 1;
        let id = self.reserve();
        self.record(id, parent, label, start, end);
    }

    /// Renders the log as Chrome trace-event JSON ("X" complete events,
    /// microsecond timestamps).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 128);
        out.push_str("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let ts = s.start.duration_since(self.origin).as_nanos() as f64 / 1e3;
            let dur = s.end.duration_since(s.start).as_nanos() as f64 / 1e3;
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{ts:.3},\"dur\":{dur:.3},\
                 \"pid\":1,\"tid\":1,\"args\":{{\"id\":{},\"parent\":{}}}}}",
                s.name, s.cat, s.id, s.parent
            );
        }
        let _ = write!(
            out,
            "],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"call_spans_dropped\":{}}}}}",
            self.calls_dropped
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_json_is_valid_and_links_parents() {
        let mut s = Spans::default();
        let slot = s.reserve();
        let t0 = Instant::now();
        s.call(slot, ("terminal", "parn"), t0, Instant::now());
        s.record(slot, 0, ("round", "slot.parn"), t0, Instant::now());
        let json = s.to_chrome_json();
        plobs::json::validate(&json).unwrap();
        assert!(json.contains("\"name\":\"parn\""));
        assert!(json.contains(&format!("\"parent\":{slot}")));
    }

    #[test]
    fn call_spans_are_capped() {
        let mut s = Spans::default();
        let t = Instant::now();
        for _ in 0..MAX_CALL_SPANS + 5 {
            s.call(0, ("terminal", "x"), t, t);
        }
        assert_eq!(s.spans.len(), MAX_CALL_SPANS);
        assert!(s.to_chrome_json().contains("\"call_spans_dropped\":5"));
    }
}
