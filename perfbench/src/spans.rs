//! In-memory span recording around calls into each layer.
//!
//! A span has a name, a start and an end (nanoseconds since the tracer was
//! created), the span that caused it, and the request it belongs to. Spans
//! stay in memory while the benchmark runs and are written out once at the
//! end. With tracing off every call goes straight to the wrapped closure.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span, used as the parent of the spans it causes.
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    request: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span. `f` receives the span's id (for child spans),
    /// or `None` when tracing is off.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        if !self.enabled {
            return f(None);
        }
        let start_ns = self.now_ns();
        let id = {
            let mut spans = self.spans.lock().expect("span list poisoned");
            spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                request,
            });
            spans.len() - 1
        };
        let out = f(Some(id));
        let end_ns = self.now_ns();
        self.spans.lock().expect("span list poisoned")[id].end_ns = end_ns;
        out
    }

    /// Record an already-measured interval as a span.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.lock().expect("span list poisoned").push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            request,
        });
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("span list poisoned").len()
    }

    /// Total self time per span name in milliseconds: each span's duration
    /// minus the part of its interval that its children cover.
    pub fn self_ms_by_name(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.lock().expect("span list poisoned");
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for span in spans.iter() {
            if let Some(p) = span.parent {
                children[p].push((span.start_ns, span.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for (span, kids) in spans.iter().zip(children.iter_mut()) {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = span.start_ns;
            for &(s, e) in kids.iter() {
                let (s, e) = (s.max(cursor), e.min(span.end_ns));
                if e > s {
                    covered += e - s;
                    cursor = e;
                }
            }
            let own = (span.end_ns - span.start_ns).saturating_sub(covered);
            *out.entry(span.name).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span list poisoned");
        let mut out = String::with_capacity(spans.len() * 96);
        for (id, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
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
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("a", None, 0, |id| id), None);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new(true);
        let base = Instant::now();
        let at = |ms: u64| base + std::time::Duration::from_millis(ms);
        t.record("parent", None, 1, at(0), at(10));
        t.record("child", Some(0), 1, at(2), at(5));
        t.record("child", Some(0), 1, at(4), at(6));
        let self_ms = t.self_ms_by_name();
        assert!((self_ms["parent"] - 6.0).abs() < 1e-6, "{self_ms:?}");
        assert!((self_ms["child"] - 5.0).abs() < 1e-6, "{self_ms:?}");
    }
}
