//! Execution-trace model.
//!
//! AutoType instruments compiled byte-code to dump every branch comparison
//! and return value, keyed by `(filename, line)` (Appendix D.2). The
//! interpreter emits the same event stream here. The downstream featurizer
//! (in `autotype-exec`) turns events into binary literals per §5.2 of the
//! paper.
//!
//! Exception kinds are interned ([`ExcId`]) so every [`TraceEvent`] is
//! `Copy` — the hot candidate × example loop pushes events without touching
//! the allocator. Ids are resolved back to kind names through the
//! [`ExcTable`] carried by the owning [`Trace`].

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

/// An interned exception-kind symbol, valid only together with the
/// [`ExcTable`] it was interned into (one per [`Trace`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExcId(u32);

/// Kinds preseeded into every table: interning one of these never allocates
/// and always yields the same id. Covers every kind the interpreter or the
/// corpus raises; user-defined kinds fall through to the dynamic tail.
const WELL_KNOWN: &[&str] = &[
    "ValueError",
    "TypeError",
    "ImportError",
    "KeyError",
    "IndexError",
    "AttributeError",
    "NameError",
    "ZeroDivisionError",
    "IOError",
    "EOFError",
    "OverflowError",
    "RuntimeError",
    "Exception",
    crate::error::PyError::FUEL,
    crate::error::PyError::RECURSION,
];

/// Bidirectional kind ↔ id table. Ids `0..WELL_KNOWN.len()` are static;
/// user-raised kinds are appended in first-seen order, which is
/// deterministic because events within one run are recorded serially.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExcTable {
    extra: Vec<String>,
}

impl ExcTable {
    pub fn intern(&mut self, kind: &str) -> ExcId {
        if let Some(i) = WELL_KNOWN.iter().position(|k| *k == kind) {
            return ExcId(i as u32);
        }
        let base = WELL_KNOWN.len();
        if let Some(i) = self.extra.iter().position(|k| k == kind) {
            return ExcId((base + i) as u32);
        }
        self.extra.push(kind.to_string());
        ExcId((base + self.extra.len() - 1) as u32)
    }

    pub fn name(&self, id: ExcId) -> &str {
        let i = id.0 as usize;
        match WELL_KNOWN.get(i) {
            Some(k) => k,
            None => &self.extra[i - WELL_KNOWN.len()],
        }
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
    /// An exception of the interned `kind` propagated out of the top-level
    /// invocation.
    Exception { kind: ExcId },
}

/// The completed event stream of one run, plus the table that resolves its
/// interned exception kinds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    pub events: Vec<TraceEvent>,
    pub exc: ExcTable,
}

impl Trace {
    /// Whether an exception of the named kind was recorded.
    pub fn has_exception(&self, kind: &str) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e, TraceEvent::Exception { kind: id } if self.exc.name(*id) == kind))
    }
}

/// Collects trace events during one execution. The interpreter holds a
/// mutable reference; a fresh tracer is used per (function, example) run.
#[derive(Debug, Default)]
pub struct Tracer {
    pub trace: Trace,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer::default()
    }

    /// Finish tracing, yielding the recorded events and their kind table.
    pub fn into_trace(self) -> Trace {
        self.trace
    }

    pub fn branch(&mut self, site: SiteId, taken: bool) {
        self.trace.events.push(TraceEvent::Branch { site, taken });
    }

    pub fn ret(&mut self, site: SiteId, value: &Value) {
        self.trace.events.push(TraceEvent::Return {
            site,
            value: ValueSummary::of(value),
        });
    }

    pub fn exception(&mut self, kind: &str) {
        let kind = self.trace.exc.intern(kind);
        self.trace.events.push(TraceEvent::Exception { kind });
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
        let mut t = Tracer::new();
        t.branch(SiteId::new(0, 6), true);
        t.ret(SiteId::new(0, 20), &Value::None);
        assert_eq!(t.trace.events.len(), 2);
        assert!(matches!(t.trace.events[0], TraceEvent::Branch { .. }));
    }

    #[test]
    fn well_known_kinds_intern_without_extra_entries() {
        let mut table = ExcTable::default();
        let a = table.intern("ValueError");
        let b = table.intern("ValueError");
        assert_eq!(a, b);
        assert_eq!(table.name(a), "ValueError");
        assert!(table.extra.is_empty());
    }

    #[test]
    fn custom_kinds_round_trip_deterministically() {
        let mut table = ExcTable::default();
        let a = table.intern("MyCustomError");
        let b = table.intern("OtherError");
        assert_eq!(table.intern("MyCustomError"), a);
        assert_ne!(a, b);
        assert_eq!(table.name(a), "MyCustomError");
        assert_eq!(table.name(b), "OtherError");

        // Same intern order in a second table yields the same ids.
        let mut again = ExcTable::default();
        assert_eq!(again.intern("MyCustomError"), a);
        assert_eq!(again.intern("OtherError"), b);
    }

    #[test]
    fn trace_events_are_copy() {
        fn assert_copy<T: Copy>() {}
        assert_copy::<TraceEvent>();
    }

    #[test]
    fn has_exception_resolves_through_the_table() {
        let mut t = Tracer::new();
        t.exception("MyCustomError");
        let trace = t.into_trace();
        assert!(trace.has_exception("MyCustomError"));
        assert!(!trace.has_exception("ValueError"));
    }
}
