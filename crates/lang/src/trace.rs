//! Execution-trace model.
//!
//! AutoType instruments compiled byte-code to dump every branch comparison
//! and return value, keyed by `(filename, line)` (Appendix D.2). The
//! interpreter emits the same event stream here. The downstream featurizer
//! (in `autotype-exec`) turns events into binary literals per §5.2 of the
//! paper.
//!
//! Every [`TraceEvent`] is a (site, outcome) pair and `Copy`, so the hot
//! candidate × example loop pushes events without touching the allocator.
//! The exception that escaped a run is not an event: a run has at most one
//! and it ends the run, so it is one field of the [`Trace`], set by whoever
//! knows which call was the top-level one.

use crate::value::Value;

/// Identifies an instrumentation site: the file id within a program plus the
/// 1-based source line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SiteId {
    pub file: u32,
    pub line: u32,
}

impl SiteId {
    pub fn new(file: u32, line: u32) -> Self {
        SiteId { file, line }
    }
}

impl std::fmt::Display for SiteId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "f{}:{}", self.file, self.line)
    }
}

/// A featurizable summary of a return value, following §5.2:
/// booleans keep their value; numbers and collection lengths are reduced to
/// zero / non-zero; composite objects are reduced to None / not-None.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ValueSummary {
    Bool(bool),
    /// Numeric return: is it exactly zero?
    NumZero(bool),
    /// Collection (or string) return: is its length zero?
    LenZero(bool),
    /// Composite return: is it None? (`IsNone(true)` also covers a literal
    /// `return None`.)
    IsNone(bool),
}

impl ValueSummary {
    /// Summarize a runtime value per the paper's featurization rules.
    pub fn of(value: &Value) -> ValueSummary {
        match value {
            Value::Bool(b) => ValueSummary::Bool(*b),
            Value::Int(i) => ValueSummary::NumZero(*i == 0),
            Value::Float(f) => ValueSummary::NumZero(*f == 0.0),
            Value::Str(s) => ValueSummary::LenZero(s.is_empty()),
            Value::List(l) => ValueSummary::LenZero(l.borrow().is_empty()),
            Value::Dict(d) => ValueSummary::LenZero(d.borrow().is_empty()),
            Value::None => ValueSummary::IsNone(true),
            _ => ValueSummary::IsNone(false),
        }
    }
}

/// One instrumentation event. `Copy`, so recording an event in the hot loop
/// is a plain memcpy into the event vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TraceEvent {
    /// A branch condition evaluated at `site` to `taken`.
    Branch { site: SiteId, taken: bool },
    /// A `return` executed at `site` with the summarized value.
    Return { site: SiteId, value: ValueSummary },
}

/// The record of one run: its event stream, plus the kind of the exception
/// that escaped the top-level invocation, if one did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    pub events: Vec<TraceEvent>,
    pub exception: Option<String>,
}

impl Trace {
    /// Whether an exception of the named kind escaped the run.
    pub fn has_exception(&self, kind: &str) -> bool {
        self.exception.as_deref() == Some(kind)
    }

    pub fn branch(&mut self, site: SiteId, taken: bool) {
        self.events.push(TraceEvent::Branch { site, taken });
    }

    pub fn ret(&mut self, site: SiteId, value: &Value) {
        self.events.push(TraceEvent::Return {
            site,
            value: ValueSummary::of(value),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summaries_follow_the_paper() {
        assert_eq!(
            ValueSummary::of(&Value::Bool(true)),
            ValueSummary::Bool(true)
        );
        assert_eq!(
            ValueSummary::of(&Value::Int(0)),
            ValueSummary::NumZero(true)
        );
        assert_eq!(
            ValueSummary::of(&Value::Int(7)),
            ValueSummary::NumZero(false)
        );
        assert_eq!(
            ValueSummary::of(&Value::str("")),
            ValueSummary::LenZero(true)
        );
        assert_eq!(
            ValueSummary::of(&Value::list(vec![Value::Int(1)])),
            ValueSummary::LenZero(false)
        );
        assert_eq!(ValueSummary::of(&Value::None), ValueSummary::IsNone(true));
    }

    #[test]
    fn events_are_ordered() {
        let mut t = Trace::default();
        t.branch(SiteId::new(0, 6), true);
        t.ret(SiteId::new(0, 20), &Value::None);
        assert_eq!(t.events.len(), 2);
        assert!(matches!(t.events[0], TraceEvent::Branch { .. }));
    }

    #[test]
    fn trace_events_are_copy() {
        fn assert_copy<T: Copy>() {}
        assert_copy::<TraceEvent>();
    }
}
