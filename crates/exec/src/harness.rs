//! Traced execution of candidate functions, with every dependency of
//! §4.2 installed when the executor is built.

use std::collections::BTreeMap;
use std::sync::Arc;

use autotype_lang::ast::{any_expr, Expr, Module, Stmt, Target};
use autotype_lang::interp::{Interp, Io, Program};
use autotype_lang::trace::Trace;
use autotype_lang::value::Value;
use autotype_lang::PyError;

use crate::analyze::{Candidate, EntryPoint};

/// The simulated package index (`pip`): importable module name → PyLite
/// source. [`Executor::new`] installs every package a program imports;
/// an import the index cannot satisfy raises `ImportError` when it runs.
#[derive(Debug, Clone, Default)]
pub struct PackageIndex {
    packages: BTreeMap<String, String>,
}

impl PackageIndex {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn insert(&mut self, name: &str, source: &str) {
        self.packages.insert(name.to_string(), source.to_string());
    }

    pub fn get(&self, name: &str) -> Option<&str> {
        self.packages.get(name).map(|s| s.as_str())
    }

    /// Iterate over `(name, source)` pairs in name order — the serializable
    /// view a detector pack snapshots and resolves its program over at load
    /// time.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.packages.iter().map(|(n, s)| (n.as_str(), s.as_str()))
    }

    pub fn len(&self) -> usize {
        self.packages.len()
    }

    pub fn is_empty(&self) -> bool {
        self.packages.is_empty()
    }
}

/// Result of one traced run of a candidate on one input.
#[derive(Debug)]
pub struct RunOutcome {
    /// Branch / return events from the run, and the kind of the exception
    /// that escaped it.
    pub trace: Trace,
    /// The top-level result (error kind if the run failed).
    pub result: Result<Value, PyError>,
    /// Deterministic execution cost (stand-in for wall-clock).
    pub fuel_used: u64,
    /// Harvested intermediate values (name → rendered atomic value) for
    /// semantic-transformation mining (§7.1, Appendix B).
    pub harvest: Vec<(String, String)>,
}

impl RunOutcome {
    /// Whether the run completed without an uncaught exception.
    pub fn completed(&self) -> bool {
        self.result.is_ok()
    }

    /// The synthetic black-box literal summarizing the run: a `Ret` at the
    /// reserved site `(u32::MAX, 0)` for the top-level result, or an
    /// `Exception` when the run failed. It is the RET baseline's whole view
    /// of a run, and [`probe_trace`] adds it to every probe trace.
    pub fn black_box_literal(&self) -> crate::Literal {
        match &self.result {
            Ok(value) => crate::Literal::Ret {
                site: autotype_lang::SiteId::new(u32::MAX, 0),
                value: autotype_lang::ValueSummary::of(value),
            },
            Err(e) => crate::Literal::Exception {
                kind: e.kind.clone(),
            },
        }
    }
}

/// Executes candidates against a repository program.
///
/// An executor never changes after it is built: every import its program
/// could ever execute is resolved up front, so runs take `&self` and any
/// number of threads can share one executor while sharing every AST
/// (parse once, execute many).
#[derive(Debug, Clone)]
pub struct Executor {
    /// The repository program, with every resolvable dependency installed.
    program: Program,
    /// `open(...)` targets of each program file (see [`open_targets`]),
    /// indexed by file id and kept in step with `program.files`.
    open_targets: Vec<Vec<String>>,
    fuel: u64,
    /// Packages installed when the executor was built.
    pub installs: usize,
}

impl Executor {
    /// Build an executor for a repository: installs, transitively, every
    /// package from the index that an `import` anywhere in the program
    /// names — at the top level or inside a function, method or block.
    /// PyLite's only import form is a static `import NAME`, so this is
    /// every module a run could ever ask for, and §4.2's execute, parse
    /// the `ImportError`, install and rerun loop has nothing left to find.
    ///
    /// Installed files are appended in discovery order, so resolving a
    /// program that is already closed (a pack snapshot) adds nothing and
    /// moves no file id.
    pub fn new(mut program: Program, packages: &PackageIndex, fuel: u64) -> Executor {
        let mut installs = 0;
        let mut changed = true;
        while changed {
            changed = false;
            let wanted: Vec<String> = program
                .files
                .iter()
                .flat_map(|f| f.module.all_imports().into_iter().map(|s| s.to_string()))
                .collect();
            for module in wanted {
                if module != "sys" && program.file_id(&module).is_none() {
                    if let Some(source) = packages.get(&module) {
                        if program.add_file(&module, source).is_ok() {
                            installs += 1;
                            changed = true;
                        }
                    }
                }
            }
        }
        Executor::from_snapshot(program, fuel, installs)
    }

    /// Rehydrate an executor from a program snapshot without resolving
    /// its imports. Kept for perfbench's probe replay, which rebuilds pack
    /// executors from their public fields; everything else goes through
    /// [`Executor::new`].
    pub fn from_snapshot(program: Program, fuel: u64, installs: usize) -> Executor {
        let open_targets = program
            .files
            .iter()
            .map(|f| open_targets(&f.module))
            .collect();
        Executor {
            program,
            open_targets,
            fuel,
            installs,
        }
    }

    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The per-run fuel budget this executor charges each run.
    pub fn fuel(&self) -> u64 {
        self.fuel
    }

    /// Truncate the program to its first `files` files and set `installs`.
    /// Runs never change an executor, so this is a no-op on one that was
    /// never truncated; it is kept for perfbench's probe replay, which
    /// times it.
    pub fn reset_snapshot(&mut self, files: usize, installs: usize) {
        debug_assert!(files <= self.program.files.len());
        self.program.files.truncate(files);
        self.open_targets.truncate(files);
        self.installs = installs;
    }

    /// Run a candidate on one input string, tracing the execution and
    /// harvesting its values for §7.1. `_packages` is unused — every
    /// dependency was installed at build — and kept for perfbench's
    /// replay, which passes it.
    pub fn run(&self, candidate: &Candidate, input: &str, _packages: &PackageIndex) -> RunOutcome {
        self.run_with(candidate, input, self.fuel, true)
    }

    /// One run under `fuel`, with the §7.1 harvest only when
    /// `with_harvest` is set (a probe discards it, so [`probe_trace`]
    /// skips it).
    fn run_with(
        &self,
        candidate: &Candidate,
        input: &str,
        fuel: u64,
        with_harvest: bool,
    ) -> RunOutcome {
        let file = candidate.file;
        // Pre-populate implicit-parameter channels for variants 4-6.
        let mut io = Io {
            argv: vec![input.to_string()],
            stdin: Some(input.to_string()),
            ..Io::default()
        };
        for name in &self.open_targets[file as usize] {
            io.files.insert(name.clone(), input.to_string());
        }

        // Variant 7 rewrites the module before execution.
        let rewritten;
        let program = if let EntryPoint::ScriptConstant { variable } = &candidate.entry {
            rewritten = rewrite_script_constant(&self.program, file, variable, input);
            &rewritten
        } else {
            &self.program
        };

        let mut interp = Interp::with_options(program, io, fuel);
        let result = match &candidate.entry {
            EntryPoint::Function { name }
            | EntryPoint::ArgvFunction { name }
            | EntryPoint::StdinFunction { name }
            | EntryPoint::FileFunction { name, .. } => {
                let args = match &candidate.entry {
                    EntryPoint::Function { .. } => vec![Value::str(input)],
                    _ => vec![],
                };
                interp.call_function(file, name, args)
            }
            EntryPoint::MethodWithParam { class, method } => interp
                .get_global(file, class)
                .and_then(|c| interp.call(c, vec![]))
                .and_then(|obj| interp.invoke_method(obj, method, vec![Value::str(input)])),
            EntryPoint::CtorThenMethod { class, method } => interp
                .get_global(file, class)
                .and_then(|c| interp.call(c, vec![Value::str(input)]))
                .and_then(|obj| interp.invoke_method(obj, method, vec![])),
            EntryPoint::ScriptConstant { .. } => interp.load_module(file).map(|_| Value::None),
        };

        let mut harvest = Vec::new();
        match (&candidate.entry, &result) {
            _ if !with_harvest => {}
            (EntryPoint::ScriptConstant { .. }, Ok(_)) => {
                // Harvest module globals.
                if let Ok(globals) = interp.load_module(file) {
                    for (name, value) in globals.borrow().attrs.iter() {
                        harvest_value(name, value, &mut harvest);
                    }
                }
            }
            (_, Ok(value)) => {
                harvest_value("return", value, &mut harvest);
            }
            _ => {}
        }
        let mut trace = interp.reset_trace();
        trace.exception = result.as_ref().err().map(|e| e.kind.clone());
        let fuel_used = interp.fuel_used();
        RunOutcome {
            trace,
            result,
            fuel_used,
            harvest,
        }
    }
}

/// Run a candidate on one input and return the featurized trace augmented
/// with the run's [black-box literal](RunOutcome::black_box_literal), plus
/// the fuel the run burned. `fuel` is the run's budget, which may be
/// lower than the executor's own (a per-request ceiling).
///
/// This is the exact trace shape `SynthesizedValidator` clauses are written
/// against (validators synthesized from the RET baseline's black-box view
/// need the synthetic literal to evaluate correctly), shared by the
/// session's validate path and the pack validator so the two can never
/// drift.
pub fn probe_trace(
    exec: &Executor,
    candidate: &Candidate,
    input: &str,
    fuel: u64,
) -> (std::collections::BTreeSet<crate::Literal>, u64) {
    let outcome = exec.run_with(candidate, input, fuel, false);
    let mut trace = crate::featurize(&outcome.trace);
    trace.insert(outcome.black_box_literal());
    (trace, outcome.fuel_used)
}

/// Harvest atomic values (and one level of composite decomposition) from a
/// runtime value, per Appendix B.
fn harvest_value(name: &str, value: &Value, out: &mut Vec<(String, String)>) {
    match value {
        Value::Str(_) | Value::Int(_) | Value::Float(_) | Value::Bool(_) => {
            out.push((name.to_string(), value.display()));
        }
        Value::List(items) => {
            for (i, item) in items.borrow().iter().enumerate().take(8) {
                if matches!(
                    item,
                    Value::Str(_) | Value::Int(_) | Value::Float(_) | Value::Bool(_)
                ) {
                    out.push((format!("{name}[{i}]"), item.display()));
                }
            }
        }
        Value::Dict(map) => {
            for (k, v) in map.borrow().iter() {
                if matches!(
                    v,
                    Value::Str(_) | Value::Int(_) | Value::Float(_) | Value::Bool(_)
                ) {
                    out.push((format!("{name}.{k}"), v.display()));
                }
            }
        }
        Value::Object(o) => {
            for (k, v) in o.borrow().attrs.iter() {
                if matches!(
                    v,
                    Value::Str(_) | Value::Int(_) | Value::Float(_) | Value::Bool(_)
                ) {
                    out.push((format!("{name}.{k}"), v.display()));
                }
            }
        }
        _ => {}
    }
}

/// String literals passed to `open(...)` anywhere in a file — the virtual
/// files the harness must fill with the input (variant 6). An executor
/// walks each file once, when the file joins its program.
fn open_targets(module: &Module) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    any_expr(&module.body, &mut |e| {
        if let Expr::Call { callee, args, .. } = e {
            if let (Expr::Name(n), Some(Expr::Str(path))) = (callee.as_ref(), args.first()) {
                if n.id == "open" && !names.iter().any(|n| n.as_str() == path.as_ref()) {
                    names.push(path.to_string());
                }
            }
        }
        false
    });
    names
}

/// Replace the first module-level string-constant assignment to `variable`
/// with the given input (Appendix D.1, Listing 3). The program clone is
/// shallow (files are `Arc`-shared); only the rewritten file's top-level
/// statements are copied, via `Arc::make_mut`, and its function bodies
/// stay shared.
fn rewrite_script_constant(program: &Program, file: u32, variable: &str, input: &str) -> Program {
    let mut rewritten = program.clone();
    let module = &mut Arc::make_mut(&mut rewritten.files[file as usize]).module;
    for stmt in &mut module.body {
        if let Stmt::Assign {
            target: Target::Name(name),
            value: value @ Expr::Str(_),
            ..
        } = stmt
        {
            if name.id == variable {
                *value = Expr::Str(input.into());
                break;
            }
        }
    }
    rewritten
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze_module;
    use autotype_lang::trace::TraceEvent;

    fn program_with(src: &str) -> Program {
        let mut p = Program::new();
        p.add_file("snippet", src).unwrap();
        p
    }

    fn first_candidate(program: &Program) -> Candidate {
        let (cands, _) = analyze_module(0, &program.file(0).module);
        cands.into_iter().next().expect("candidate")
    }

    const FUEL: u64 = 100_000;

    #[test]
    fn runs_plain_function_candidate() {
        let program =
            program_with("def f(s):\n    if len(s) > 3:\n        return True\n    return False\n");
        let cand = first_candidate(&program);
        let exec = Executor::new(program, &PackageIndex::new(), FUEL);
        let out = exec.run(&cand, "abcdef", &PackageIndex::new());
        assert!(out.completed());
        assert!(!out.trace.events.is_empty());
        assert_eq!(
            out.harvest,
            vec![("return".to_string(), "True".to_string())]
        );
    }

    #[test]
    fn runs_class_ctor_then_method() {
        let src = r#"
class Card:
    def __init__(self, s):
        self.num = s
        self.brand = None
    def parse(self):
        if self.num[0] == '4':
            self.brand = 'Visa'
        return self
"#;
        let program = program_with(src);
        let cand = first_candidate(&program);
        assert!(matches!(cand.entry, EntryPoint::CtorThenMethod { .. }));
        let exec = Executor::new(program, &PackageIndex::new(), FUEL);
        let out = exec.run(&cand, "4111111111111111", &PackageIndex::new());
        assert!(out.completed());
        // The returned `self` exposes brand for transformation harvesting.
        assert!(out
            .harvest
            .iter()
            .any(|(k, v)| k == "return.brand" && v == "Visa"));
    }

    #[test]
    fn runs_argv_and_stdin_variants() {
        let argv_src = "import sys\n\ndef main():\n    s = sys.argv[0]\n    return len(s)\n";
        let program = program_with(argv_src);
        let cand = first_candidate(&program);
        let exec = Executor::new(program, &PackageIndex::new(), FUEL);
        let out = exec.run(&cand, "hello", &PackageIndex::new());
        assert!(out.completed());
        assert!(out.harvest.iter().any(|(_, v)| v == "5"));

        let stdin_src = "def main():\n    s = input()\n    return s.upper()\n";
        let program = program_with(stdin_src);
        let cand = first_candidate(&program);
        let exec = Executor::new(program, &PackageIndex::new(), FUEL);
        let out = exec.run(&cand, "abc", &PackageIndex::new());
        assert!(out.harvest.iter().any(|(_, v)| v == "ABC"));
    }

    #[test]
    fn runs_file_variant_with_virtual_fs() {
        let src = "def main():\n    fp = open('data.txt')\n    s = fp.read()\n    return len(s)\n";
        let program = program_with(src);
        let cand = first_candidate(&program);
        let exec = Executor::new(program, &PackageIndex::new(), FUEL);
        let out = exec.run(&cand, "12345678", &PackageIndex::new());
        assert!(out.completed());
        assert!(out.harvest.iter().any(|(_, v)| v == "8"));
    }

    #[test]
    fn rewrites_script_constant() {
        let src = "card = '4111111111111111'\nresult = len(card)\n";
        let program = program_with(src);
        let cand = first_candidate(&program);
        assert!(matches!(cand.entry, EntryPoint::ScriptConstant { .. }));
        let exec = Executor::new(program, &PackageIndex::new(), FUEL);
        let out = exec.run(&cand, "12345", &PackageIndex::new());
        assert!(out.completed());
        assert!(out.harvest.iter().any(|(k, v)| k == "result" && v == "5"));
    }

    #[test]
    fn static_dependency_resolution_installs_packages() {
        let mut packages = PackageIndex::new();
        packages.insert("luhnlib", "def luhn_sum(s):\n    total = 0\n    for c in s:\n        total += int(c)\n    return total\n");
        let src = "import luhnlib\n\ndef f(s):\n    return luhnlib.luhn_sum(s)\n";
        let program = program_with(src);
        let cand = first_candidate(&program);
        let exec = Executor::new(program, &packages, FUEL);
        assert_eq!(exec.installs, 1);
        let out = exec.run(&cand, "123", &packages);
        assert!(out.completed());
        assert!(out.harvest.iter().any(|(_, v)| v == "6"));
    }

    #[test]
    fn missing_package_fails_with_import_error() {
        // The module fails to load before any entry point is reached; a
        // function and both class entry kinds record the error alike.
        let cases = [
            (
                "def f(s):\n    return s\n",
                EntryPoint::Function { name: "f".into() },
            ),
            (
                "class V:\n    def check(self, s):\n        return s\n",
                EntryPoint::MethodWithParam {
                    class: "V".into(),
                    method: "check".into(),
                },
            ),
            (
                "class C:\n    def __init__(self, s):\n        self.s = s\n    def parse(self):\n        return self.s\n",
                EntryPoint::CtorThenMethod {
                    class: "C".into(),
                    method: "parse".into(),
                },
            ),
        ];
        for (body, entry) in cases {
            let program = program_with(&format!("import nosuchpkg\n\n{body}"));
            let cand = first_candidate(&program);
            assert_eq!(cand.entry, entry);
            let exec = Executor::new(program, &PackageIndex::new(), FUEL);
            let out = exec.run(&cand, "x", &PackageIndex::new());
            assert!(!out.completed());
            assert!(
                out.trace.has_exception("ImportError"),
                "{entry:?} lost the load error"
            );
        }
    }

    #[test]
    fn inter_procedural_tracing_covers_callee_branches() {
        let src = r#"
def helper(s):
    if s.isdigit():
        return True
    return False

def f(s):
    return helper(s)
"#;
        let program = program_with(src);
        let (cands, _) = analyze_module(0, &program.file(0).module);
        let f = cands
            .iter()
            .find(|c| matches!(&c.entry, EntryPoint::Function { name } if name == "f"))
            .unwrap()
            .clone();
        let exec = Executor::new(program, &PackageIndex::new(), FUEL);
        let out = exec.run(&f, "123", &PackageIndex::new());
        // The branch inside helper (line 3) must appear in f's trace.
        assert!(out
            .trace
            .events
            .iter()
            .any(|e| matches!(e, TraceEvent::Branch { site, taken: true } if site.line == 3)));
    }

    #[test]
    fn exceptions_are_part_of_the_trace() {
        // A builtin's error, a user-raised kind and fuel exhaustion are each
        // recorded once, as the trace's exception and as a literal equal to
        // the run's black-box literal.
        let cases = [
            ("def f(s):\n    return int(s)\n", "ValueError"),
            (
                "def f(s):\n    if s:\n        raise MyError('bad')\n    return s\n",
                "MyError",
            ),
            (
                "def f(s):\n    while True:\n        s = s\n    return s\n",
                PyError::FUEL,
            ),
        ];
        for (src, kind) in cases {
            let program = program_with(src);
            let cand = first_candidate(&program);
            let exec = Executor::new(program, &PackageIndex::new(), FUEL);
            let out = exec.run(&cand, "not-a-number", &PackageIndex::new());
            assert!(!out.completed());
            assert_eq!(out.trace.exception.as_deref(), Some(kind));
            assert!(out.trace.has_exception(kind));
            let literal = crate::Literal::Exception { kind: kind.into() };
            assert_eq!(out.black_box_literal(), literal);
            assert!(crate::featurize(&out.trace).contains(&literal));
        }

        // A successful run records no exception.
        let program = program_with("def f(s):\n    return int(s)\n");
        let cand = first_candidate(&program);
        let exec = Executor::new(program, &PackageIndex::new(), FUEL);
        let out = exec.run(&cand, "42", &PackageIndex::new());
        assert!(out.completed());
        assert_eq!(out.trace.exception, None);
        assert!(!crate::featurize(&out.trace)
            .iter()
            .any(|l| matches!(l, crate::Literal::Exception { .. })));
    }

    #[test]
    fn function_body_imports_install_at_build() {
        let mut packages = PackageIndex::new();
        packages.insert(
            "latelib",
            "def f():\n    import deeplib\n    return deeplib.g()\n",
        );
        packages.insert("deeplib", "def g():\n    return 7\n");
        // Both imports sit inside function bodies, one of them inside an
        // installed package: the build installs both, in discovery order.
        let src = "def f(s):\n    import latelib\n    return latelib.f()\n";
        let program = program_with(src);
        let cand = first_candidate(&program);
        let exec = Executor::new(program, &packages, FUEL);
        assert_eq!(exec.installs, 2);
        let names: Vec<&str> = exec.program.files.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["snippet", "latelib", "deeplib"]);
        let out = exec.run(&cand, "x", &packages);
        assert!(out.completed());
        assert_eq!(out.harvest, vec![("return".to_string(), "7".to_string())]);

        // Resolving a closed program again installs nothing.
        let again = Executor::new(exec.program.clone(), &packages, FUEL);
        assert_eq!(again.installs, 0);
        assert_eq!(again.program.files.len(), 3);

        // An import the index cannot satisfy still fails when it runs.
        let program = program_with("def f(s):\n    import nosuchpkg\n    return s\n");
        let cand = first_candidate(&program);
        let exec = Executor::new(program, &packages, FUEL);
        assert_eq!(exec.installs, 0);
        assert!(exec
            .run(&cand, "x", &packages)
            .trace
            .has_exception("ImportError"));
    }

    #[test]
    fn rewriting_shares_unrelated_files() {
        let mut program = program_with(
            "card = '4111111111111111'\nresult = len(card)\n\ndef f(s):\n    return s\n",
        );
        program
            .add_file("other", "def g():\n    return 1\n")
            .unwrap();
        let rewritten = rewrite_script_constant(&program, 0, "card", "12345");
        // Only the rewritten file's top level is copied; its function
        // bodies stay shared.
        assert!(!Arc::ptr_eq(&program.files[0], &rewritten.files[0]));
        assert!(Arc::ptr_eq(&program.files[1], &rewritten.files[1]));
        let def = |p: &Program| match &p.file(0).module.body[2] {
            Stmt::FuncDef(f, _) => f.clone(),
            _ => panic!("expected a def"),
        };
        assert!(Arc::ptr_eq(&def(&program), &def(&rewritten)));
    }

    /// Module-level list and dict literals, a class and two defs: the
    /// shapes a run re-executes as module init on every probe.
    const PINNED_SNIPPET: &str = r#"
KNOWN = ['jan', 'feb', 'mar']
MONTHS = {'jan': 1, 'feb': 2, 'mar': 3}

class Parser:
    def __init__(self):
        self.seen = 0
    def month(self, s):
        self.seen += 1
        return MONTHS.get(s[:3].lower(), 0)

def known(s):
    return s[:3].lower() in KNOWN

def check(s):
    if len(s) < 3:
        return False
    if known(s):
        return Parser().month(s) > 0
    return False
"#;

    #[test]
    fn probe_fuel_and_literals_are_pinned() {
        use autotype_lang::{SiteId, ValueSummary};
        let branch = |line, taken| crate::Literal::Branch {
            site: SiteId::new(0, line),
            taken,
        };
        let ret = |file, line, value| crate::Literal::Ret {
            site: SiteId::new(file, line),
            value,
        };
        let program = program_with(PINNED_SNIPPET);
        let (cands, _) = analyze_module(0, &program.file(0).module);
        let check = cands
            .into_iter()
            .find(|c| matches!(&c.entry, EntryPoint::Function { name } if name == "check"))
            .unwrap();
        let exec = Executor::new(program, &PackageIndex::new(), FUEL);
        // Fuel and literals recorded before definitions and string literals
        // were shared with the AST; sharing must not move either.
        let pinned = [
            (
                "February",
                57,
                vec![
                    branch(16, false),
                    branch(18, true),
                    ret(0, 10, ValueSummary::NumZero(false)),
                    ret(0, 13, ValueSummary::Bool(true)),
                    ret(0, 19, ValueSummary::Bool(true)),
                    ret(u32::MAX, 0, ValueSummary::Bool(true)),
                ],
            ),
            (
                "xyzzy",
                35,
                vec![
                    branch(16, false),
                    branch(18, false),
                    ret(0, 13, ValueSummary::Bool(false)),
                    ret(0, 20, ValueSummary::Bool(false)),
                    ret(u32::MAX, 0, ValueSummary::Bool(false)),
                ],
            ),
            (
                "ab",
                26,
                vec![
                    branch(16, true),
                    ret(0, 17, ValueSummary::Bool(false)),
                    ret(u32::MAX, 0, ValueSummary::Bool(false)),
                ],
            ),
        ];
        for (input, fuel, literals) in pinned {
            let (trace, probe_fuel) = probe_trace(&exec, &check, input, FUEL);
            assert_eq!(probe_fuel, fuel, "probe fuel on {input:?}");
            assert_eq!(
                trace,
                literals.into_iter().collect(),
                "literals on {input:?}"
            );
            let run = exec.run(&check, input, &PackageIndex::new());
            assert_eq!(run.fuel_used, fuel, "run fuel on {input:?}");
        }
    }

    #[test]
    fn probes_skip_the_harvest_and_runs_keep_it() {
        let program = program_with("def f(s):\n    return len(s)\n");
        let cand = first_candidate(&program);
        let exec = Executor::new(program, &PackageIndex::new(), FUEL);
        let (_, probe_fuel) = probe_trace(&exec, &cand, "abc", FUEL);
        let probe = exec.run_with(&cand, "abc", FUEL, false);
        assert!(probe.harvest.is_empty());
        let run = exec.run(&cand, "abc", &PackageIndex::new());
        assert_eq!(run.harvest, vec![("return".to_string(), "3".to_string())]);
        assert_eq!((probe.fuel_used, run.fuel_used), (probe_fuel, probe_fuel));
        assert_eq!(probe.trace, run.trace);
    }

    #[test]
    fn open_targets_cover_every_installed_file() {
        let mut packages = PackageIndex::new();
        packages.insert(
            "staticlib",
            "def load():\n    fp = open('static.txt')\n    return fp.read()\n",
        );
        packages.insert(
            "latelib",
            "def load():\n    return open('late.txt').read()\n",
        );
        let src = "import staticlib\n\ndef main():\n    import latelib\n    fp = open('data.txt')\n    return fp.read() + latelib.load()\n";
        let exec = Executor::new(program_with(src), &packages, FUEL);
        let targets = |names: &[&str]| names.iter().map(|n| n.to_string()).collect::<Vec<_>>();
        assert_eq!(
            exec.open_targets,
            [
                targets(&["data.txt"]),
                targets(&["static.txt"]),
                targets(&["late.txt"])
            ]
        );
        let snapshot = Executor::from_snapshot(exec.program.clone(), FUEL, exec.installs);
        assert_eq!(snapshot.open_targets, exec.open_targets);
    }

    #[test]
    fn chained_open_reads_the_input() {
        let program = program_with("def f():\n    return open('in.txt').read()\n");
        let cand = first_candidate(&program);
        assert!(matches!(cand.entry, EntryPoint::FileFunction { .. }));
        let exec = Executor::new(program, &PackageIndex::new(), FUEL);
        let out = exec.run(&cand, "978-3-16", &PackageIndex::new());
        assert!(out.completed(), "{:?}", out.result);
        assert_eq!(
            out.harvest,
            vec![("return".to_string(), "978-3-16".to_string())]
        );
    }

    #[test]
    fn fuel_used_is_reported() {
        let program = program_with(
            "def f(s):\n    total = 0\n    for c in s:\n        total += 1\n    return total\n",
        );
        let cand = first_candidate(&program);
        let exec = Executor::new(program, &PackageIndex::new(), FUEL);
        let short = exec.run(&cand, "ab", &PackageIndex::new()).fuel_used;
        let long = exec
            .run(&cand, "abcdefghijklmnop", &PackageIndex::new())
            .fuel_used;
        assert!(long > short);
    }
}
