//! # autotype-exec — code analysis and traced execution
//!
//! The pipeline stage between a crawled repository and the DNF ranker:
//!
//! 1. [`analyze`] scans PyLite ASTs for *candidate functions* invocable
//!    with a single string parameter — the six variants of Appendix D.1
//!    plus script-constant rewriting — and rejects multi-parameter
//!    invocation chains (the paper's four uncoverable types).
//! 2. [`harness`] executes candidates under instrumentation, feeding the
//!    input through the right channel (argument, `sys.argv`, `input()`,
//!    virtual file, or rewritten constant) and running the
//!    execute-parse-install-rerun dependency loop of §4.2.
//! 3. [`featurize`](crate::featurize::featurize) reduces each trace to the set of binary literals of
//!    §5.2, ready for `autotype-dnf`.
//! 4. [`pool`] shards batches of jobs across a crew of OS threads with a
//!    deterministic, input-ordered merge — the parallel engine behind the
//!    candidate × example hot loop and the column-detection waves.

pub mod analyze;
pub mod featurize;
pub mod harness;
pub mod pool;

pub use analyze::{analyze_module, AnalysisStats, Candidate, EntryPoint};
pub use featurize::{featurize, Literal};
pub use harness::{probe_trace, Executor, PackageIndex, RunOutcome};
pub use pool::{default_workers, ExecPool};
