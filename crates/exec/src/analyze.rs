//! Code analysis: discovering *candidate functions* (§4.2, Appendix D.1).
//!
//! AutoType identifies functions "suitable for single-parameter
//! invocations" using AST-level information. Six variants are handled
//! (Listing 2 of the paper), plus standalone scripts whose hard-coded
//! string constant can be replaced by the input:
//!
//! 1. non-class function taking a single parameter — `F(s)`
//! 2. in-class single-parameter method, parameter-less constructor —
//!    `a = classA(); a.F(s)`
//! 3. in-class parameter-less method, single-parameter constructor —
//!    `a = classA(s); a.F()`
//! 4. parameter-less function reading `sys.argv`
//! 5. parameter-less function reading `input()`
//! 6. parameter-less function reading a file via `open(...)`
//! 7. (Appendix D.1) script file with a hard-coded constant assignment that
//!    can be rewritten into a parameter
//!
//! Functions needing multi-step invocation chains (two or more data
//! parameters, e.g. `c = foo3(b, s)`) are *rejected*, reproducing the four
//! benchmark types AutoType cannot handle (§8.2.2).

use autotype_lang::ast::{any_expr, ClassDef, Expr, FuncDef, Module, Stmt};

/// How a candidate function is invoked with one input string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EntryPoint {
    /// Variant 1: `F(s)`.
    Function { name: String },
    /// Variant 2: `a = Class(); a.method(s)`.
    MethodWithParam { class: String, method: String },
    /// Variant 3: `a = Class(s); a.method()`.
    CtorThenMethod { class: String, method: String },
    /// Variant 4: `F()` with `sys.argv[...]` replaced by the input.
    ArgvFunction { name: String },
    /// Variant 5: `F()` with `input()` returning the input.
    StdinFunction { name: String },
    /// Variant 6: `F(path)` / `F()` reading the input from a file.
    FileFunction { name: String, takes_path: bool },
    /// Appendix D.1: run the whole file as a script, with its first
    /// hard-coded string-constant assignment replaced by the input.
    ScriptConstant { variable: String },
}

impl EntryPoint {
    /// Display name used in rankings ("file.func").
    pub fn label(&self) -> String {
        match self {
            EntryPoint::Function { name }
            | EntryPoint::ArgvFunction { name }
            | EntryPoint::StdinFunction { name }
            | EntryPoint::FileFunction { name, .. } => name.clone(),
            EntryPoint::MethodWithParam { class, method }
            | EntryPoint::CtorThenMethod { class, method } => format!("{class}.{method}"),
            EntryPoint::ScriptConstant { variable } => format!("<script:{variable}>"),
        }
    }
}

/// A discovered candidate function within a program file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate {
    pub file: u32,
    pub entry: EntryPoint,
}

/// Statistics from the analysis pass (how many functions were rejected and
/// why — used to reproduce the §8.2.2 coverage discussion).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AnalysisStats {
    pub candidates: usize,
    pub rejected_multi_param: usize,
    pub rejected_other: usize,
}

/// Scan one parsed module for candidate functions.
pub fn analyze_module(file: u32, module: &Module) -> (Vec<Candidate>, AnalysisStats) {
    let mut out = Vec::new();
    let mut stats = AnalysisStats::default();

    for func in module.functions() {
        match classify_function(func, false) {
            Some(entry) => out.push(Candidate { file, entry }),
            None => {
                if func.params.len() >= 2 {
                    stats.rejected_multi_param += 1;
                } else {
                    stats.rejected_other += 1;
                }
            }
        }
    }

    for class in module.classes() {
        analyze_class(file, class, &mut out, &mut stats);
    }

    // Scripts with hard-coded constants (Appendix D.1, Listing 3).
    if module.has_script_body() {
        if let Some(variable) = first_string_constant(module) {
            out.push(Candidate {
                file,
                entry: EntryPoint::ScriptConstant { variable },
            });
        }
    }

    stats.candidates = out.len();
    (out, stats)
}

fn classify_function(func: &FuncDef, is_method: bool) -> Option<EntryPoint> {
    let data_params = if is_method {
        func.params.len().saturating_sub(1)
    } else {
        func.params.len()
    };
    match data_params {
        1 => Some(EntryPoint::Function {
            name: func.name.clone(),
        }),
        0 => {
            // Check for implicit parameters in the body.
            if uses_sys_argv(&func.body) {
                Some(EntryPoint::ArgvFunction {
                    name: func.name.clone(),
                })
            } else if calls_builtin(&func.body, "input") {
                Some(EntryPoint::StdinFunction {
                    name: func.name.clone(),
                })
            } else if calls_builtin(&func.body, "open") {
                Some(EntryPoint::FileFunction {
                    name: func.name.clone(),
                    takes_path: false,
                })
            } else {
                None
            }
        }
        _ => None, // multi-parameter: unsupported invocation chain
    }
}

fn analyze_class(file: u32, class: &ClassDef, out: &mut Vec<Candidate>, stats: &mut AnalysisStats) {
    let init = class.methods.iter().find(|m| m.name == "__init__");
    let ctor_params = init.map(|m| m.params.len().saturating_sub(1)).unwrap_or(0);
    for method in &class.methods {
        if method.name == "__init__" {
            continue;
        }
        let data_params = method.params.len().saturating_sub(1);
        match (ctor_params, data_params) {
            // Variant 2: parameter-less constructor, 1-param method.
            (0, 1) => out.push(Candidate {
                file,
                entry: EntryPoint::MethodWithParam {
                    class: class.name.clone(),
                    method: method.name.clone(),
                },
            }),
            // Variant 3: 1-param constructor, parameter-less method.
            (1, 0) => out.push(Candidate {
                file,
                entry: EntryPoint::CtorThenMethod {
                    class: class.name.clone(),
                    method: method.name.clone(),
                },
            }),
            (c, d) if c >= 2 || d >= 2 => stats.rejected_multi_param += 1,
            _ => stats.rejected_other += 1,
        }
    }
}

fn uses_sys_argv(body: &[Stmt]) -> bool {
    any_expr(body, &mut |e| {
        matches!(e, Expr::Attr { object, name, .. }
            if name == "argv" && matches!(object.as_ref(), Expr::Name(n) if n.id == "sys"))
    })
}

fn calls_builtin(body: &[Stmt], builtin: &str) -> bool {
    any_expr(body, &mut |e| {
        matches!(e, Expr::Call { callee, .. }
            if matches!(callee.as_ref(), Expr::Name(n) if n.id == builtin))
    })
}

/// First module-level assignment of a string constant to a plain name
/// (Listing 3: `card_number = '4111111111111111'`).
fn first_string_constant(module: &Module) -> Option<String> {
    for stmt in &module.body {
        if let Stmt::Assign {
            target: autotype_lang::ast::Target::Name(name),
            value: Expr::Str(_),
            ..
        } = stmt
        {
            return Some(name.id.clone());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use autotype_lang::parse_source;

    fn analyze(src: &str) -> (Vec<Candidate>, AnalysisStats) {
        let module = parse_source(src).unwrap();
        analyze_module(0, &module)
    }

    #[test]
    fn variant1_single_param_function() {
        let (cands, _) = analyze("def validate(s):\n    return len(s) == 16\n");
        assert_eq!(
            cands[0].entry,
            EntryPoint::Function {
                name: "validate".into()
            }
        );
    }

    #[test]
    fn variant2_paramless_ctor_method_with_param() {
        let src = "class Card:\n    def __init__(self):\n        self.num = None\n    def parse(self, s):\n        return s\n";
        let (cands, _) = analyze(src);
        assert!(cands.contains(&Candidate {
            file: 0,
            entry: EntryPoint::MethodWithParam {
                class: "Card".into(),
                method: "parse".into()
            }
        }));
    }

    #[test]
    fn variant3_ctor_with_param_paramless_method() {
        let src = "class Card:\n    def __init__(self, s):\n        self.num = s\n    def check(self):\n        return len(self.num)\n";
        let (cands, _) = analyze(src);
        assert!(cands.contains(&Candidate {
            file: 0,
            entry: EntryPoint::CtorThenMethod {
                class: "Card".into(),
                method: "check".into()
            }
        }));
    }

    #[test]
    fn variant4_sys_argv() {
        let src = "import sys\n\ndef main():\n    s = sys.argv[0]\n    return len(s)\n";
        let (cands, _) = analyze(src);
        assert!(cands
            .iter()
            .any(|c| matches!(&c.entry, EntryPoint::ArgvFunction { name } if name == "main")));
    }

    #[test]
    fn variant5_input() {
        let src = "def main():\n    s = input()\n    return s.isdigit()\n";
        let (cands, _) = analyze(src);
        assert!(cands
            .iter()
            .any(|c| matches!(&c.entry, EntryPoint::StdinFunction { name } if name == "main")));
    }

    #[test]
    fn variant6_open_file() {
        let src = "def main():\n    fp = open('data.txt')\n    return fp.read()\n";
        let (cands, _) = analyze(src);
        assert!(cands
            .iter()
            .any(|c| matches!(&c.entry, EntryPoint::FileFunction { .. })));
    }

    #[test]
    fn script_constant_detected() {
        let src = "card_number = '4111111111111111'\ntotal = 0\nfor c in card_number:\n    total += int(c)\n";
        let (cands, _) = analyze(src);
        assert!(cands.iter().any(|c| matches!(
            &c.entry,
            EntryPoint::ScriptConstant { variable } if variable == "card_number"
        )));
    }

    #[test]
    fn multi_param_functions_are_rejected() {
        let src = "def combine(a, b):\n    return a + b\n\ndef chain(x, y, z):\n    return x\n";
        let (cands, stats) = analyze(src);
        assert!(cands.is_empty());
        assert_eq!(stats.rejected_multi_param, 2);
    }

    #[test]
    fn paramless_function_without_io_is_rejected() {
        let src = "def nothing():\n    return 42\n";
        let (cands, stats) = analyze(src);
        assert!(cands.is_empty());
        assert_eq!(stats.rejected_other, 1);
    }

    #[test]
    fn mixed_module_counts_all() {
        let src = r#"
def ok(s):
    return s

def bad(a, b):
    return a

class C:
    def __init__(self):
        pass
    def good(self, s):
        return s
    def also_bad(self, x, y):
        return x
"#;
        let (cands, stats) = analyze(src);
        assert_eq!(cands.len(), 2);
        assert_eq!(stats.rejected_multi_param, 2);
    }
}
