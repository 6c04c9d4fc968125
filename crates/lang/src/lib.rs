//! # autotype-lang — the PyLite execution substrate
//!
//! AutoType (SIGMOD 2018) instruments and executes Python code mined from
//! GitHub. Rust has no dynamic code loading, so this crate provides the
//! substitution: **PyLite**, a small dynamically-typed, indentation-based,
//! Python-2.7-flavoured language with a tree-walking interpreter whose
//! execution emits the exact trace events the paper's bytecode injection
//! produces — branch outcomes and summarized return values keyed by
//! `(file, line)` (Appendix D.2 of the paper); the caller records the
//! exception that escaped a run next to them.
//!
//! The "mined code" of the reproduction — parsers, validators and
//! converters for rich semantic types — is written in PyLite by
//! `autotype-corpus` and executed here under deterministic fuel limits
//! (the stand-in for AutoType's 30-second watchdog).
//!
//! ## Quick example
//!
//! ```
//! use autotype_lang::{Interp, Program, Value};
//!
//! let mut program = Program::new();
//! program
//!     .add_file("card", "def check(s):\n    if len(s) == 16:\n        return True\n    return False\n")
//!     .unwrap();
//! let mut interp = Interp::new(&program);
//! let ok = interp
//!     .call_function(0, "check", vec![Value::str("4111111111111111")])
//!     .unwrap();
//! assert!(ok.truthy());
//! // The branch on line 2 and the return on line 3 are now in the trace:
//! assert_eq!(interp.trace_events().len(), 2);
//! ```

pub mod ast;
pub mod builtins;
pub mod error;
pub mod interp;
pub mod lexer;
pub mod parser;
mod resolve;
pub mod token;
pub mod trace;
pub mod value;

pub use error::PyError;
pub use interp::{Interp, Io, Program, SourceFile, DEFAULT_FUEL};
pub use parser::{parse_source, ParseError};
pub use trace::{SiteId, Trace, TraceEvent, ValueSummary};
pub use value::Value;
