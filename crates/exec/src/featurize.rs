//! Trace featurization (§5.2): each branch/return event, and the exception
//! that escaped the run, becomes a binary literal, and each execution is
//! reduced to a *set* of literals
//! ("we find that for function ranking, the set-based featurization is
//! already expressive enough").

use std::collections::BTreeSet;

use autotype_lang::trace::{SiteId, Trace, TraceEvent, ValueSummary};

/// A binary trace literal — the `c_i` of Definition 2.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Literal {
    /// `b_site == taken`.
    Branch { site: SiteId, taken: bool },
    /// `r_site == summary` (booleans keep values; numbers/lengths reduce to
    /// zero/non-zero; composites to None/not-None).
    Ret { site: SiteId, value: ValueSummary },
    /// An exception of this kind escaped the invocation.
    Exception { kind: String },
}

impl std::fmt::Display for Literal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Literal::Branch { site, taken } => {
                write!(
                    f,
                    "b{}=={}",
                    site.line,
                    if *taken { "True" } else { "False" }
                )
            }
            Literal::Ret { site, value } => {
                let rendered = match value {
                    ValueSummary::Bool(b) => (if *b { "True" } else { "False" }).to_string(),
                    ValueSummary::NumZero(z) => if *z { "0" } else { "!=0" }.to_string(),
                    ValueSummary::LenZero(z) => {
                        if *z {
                            "len==0".to_string()
                        } else {
                            "len!=0".to_string()
                        }
                    }
                    ValueSummary::IsNone(n) => {
                        if *n {
                            "None".to_string()
                        } else {
                            "!=None".to_string()
                        }
                    }
                };
                write!(f, "r{}=={rendered}", site.line)
            }
            Literal::Exception { kind } => write!(f, "raises {kind}"),
        }
    }
}

/// The set-based featurization `T(e)` of one execution trace: one literal
/// per event, plus one for the escaping exception.
pub fn featurize(trace: &Trace) -> BTreeSet<Literal> {
    let mut out = BTreeSet::new();
    for event in &trace.events {
        out.insert(match *event {
            TraceEvent::Branch { site, taken } => Literal::Branch { site, taken },
            TraceEvent::Return { site, value } => Literal::Ret { site, value },
        });
    }
    if let Some(kind) = &trace.exception {
        out.insert(Literal::Exception { kind: kind.clone() });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_events_collapse_in_set_model() {
        // A loop evaluates the same branch many times; the set model keeps
        // one literal per (site, outcome).
        let trace = Trace {
            events: vec![
                TraceEvent::Branch {
                    site: SiteId::new(0, 3),
                    taken: true,
                },
                TraceEvent::Branch {
                    site: SiteId::new(0, 3),
                    taken: true,
                },
                TraceEvent::Branch {
                    site: SiteId::new(0, 3),
                    taken: false,
                },
            ],
            ..Trace::default()
        };
        let t = featurize(&trace);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn both_branch_polarities_are_distinct_literals() {
        let a = Literal::Branch {
            site: SiteId::new(0, 6),
            taken: true,
        };
        let b = Literal::Branch {
            site: SiteId::new(0, 6),
            taken: false,
        };
        assert_ne!(a, b);
    }

    #[test]
    fn literal_display_matches_paper_notation() {
        let l = Literal::Branch {
            site: SiteId::new(0, 6),
            taken: true,
        };
        assert_eq!(l.to_string(), "b6==True");
        let r = Literal::Ret {
            site: SiteId::new(0, 20),
            value: ValueSummary::IsNone(false),
        };
        assert_eq!(r.to_string(), "r20==!=None");
    }
}
