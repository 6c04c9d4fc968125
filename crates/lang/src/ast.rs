//! Abstract syntax tree for PyLite.
//!
//! Every branch-bearing and return-bearing node carries the 1-based source
//! line so the interpreter can attribute trace events to a stable
//! `(file, line)` site, mirroring AutoType's bytecode instrumentation which
//! dumps "the filename and line number of the corresponding branch/return"
//! (paper, Appendix D.2).
//!
//! Function definitions and string literals sit behind `Arc`, so executing
//! a `def`, a `class` or a string literal binds a refcount clone of the
//! parsed node instead of copying it. `Arc` rather than `Rc` keeps the AST
//! `Send + Sync`: parsed files are shared across pool workers.
//!
//! Every name node carries its [`Resolution`], fixed once at parse time:
//! the parser resolves a name by its spelling (module global or builtin),
//! and the resolver (`resolve.rs`) rebinds the names a function binds to
//! slots of that function's frame before the function goes behind its
//! `Arc`.

use std::sync::Arc;

/// A parsed source file: a sequence of top-level statements.
///
/// Top-level `def`/`class` statements define module globals; other
/// statements form the module's script body (AutoType also executes code
/// snippets living outside functions, Appendix D.1).
#[derive(Debug, Clone, PartialEq)]
pub struct Module {
    pub body: Vec<Stmt>,
}

/// A binary operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    FloorDiv,
    Mod,
    Pow,
}

/// A comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    In,
    NotIn,
}

/// Where a name lives, decided once when its function is parsed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// Slot `n` of the enclosing function's frame. An unset slot falls
    /// through to the module namespace and the builtins by name.
    Local(u32),
    /// A module global: looked up in the module namespace by name.
    Global,
    /// A name spelled like builtin `n` ([`crate::builtins::NAMES`]): the
    /// module namespace may shadow it, so it is looked up there first.
    Builtin(u8),
}

impl Resolution {
    /// The resolution of a name outside any function scope: a builtin if
    /// spelled like one, otherwise a module global. The resolver rebinds
    /// the names a function binds to its frame slots.
    pub fn of(id: &str) -> Resolution {
        match crate::builtins::id(id) {
            Some(b) => Resolution::Builtin(b),
            None => Resolution::Global,
        }
    }
}

/// An occurrence of a name — read, assigned, or bound by `for`, `except
/// … as` or `import` — together with its resolution.
#[derive(Debug, Clone, PartialEq)]
pub struct Name {
    pub id: String,
    pub res: Resolution,
}

impl Name {
    pub fn new(id: String) -> Name {
        let res = Resolution::of(&id);
        Name { id, res }
    }
}

/// An expression node.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    None,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(Arc<str>),
    Name(Name),
    List(Vec<Expr>),
    Dict(Vec<(Expr, Expr)>),
    Bin {
        op: BinOp,
        left: Box<Expr>,
        right: Box<Expr>,
        line: u32,
    },
    Cmp {
        op: CmpOp,
        left: Box<Expr>,
        right: Box<Expr>,
        line: u32,
    },
    /// Short-circuiting `and` / `or`.
    BoolOp {
        is_and: bool,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    Not(Box<Expr>),
    Neg(Box<Expr>, u32),
    Call {
        callee: Box<Expr>,
        args: Vec<Expr>,
        line: u32,
    },
    Attr {
        object: Box<Expr>,
        name: String,
        line: u32,
    },
    Index {
        object: Box<Expr>,
        index: Box<Expr>,
        line: u32,
    },
    Slice {
        object: Box<Expr>,
        low: Option<Box<Expr>>,
        high: Option<Box<Expr>>,
        line: u32,
    },
}

/// Assignment target forms.
#[derive(Debug, Clone, PartialEq)]
pub enum Target {
    Name(Name),
    Attr { object: Expr, name: String },
    Index { object: Expr, index: Expr },
}

/// A statement node.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    Expr(Expr),
    Assign {
        target: Target,
        value: Expr,
        line: u32,
    },
    AugAssign {
        target: Target,
        op: BinOp,
        value: Expr,
        line: u32,
    },
    If {
        cond: Expr,
        then_body: Vec<Stmt>,
        else_body: Vec<Stmt>,
        /// The line of the `if`/`elif` keyword — the branch site.
        line: u32,
    },
    While {
        cond: Expr,
        body: Vec<Stmt>,
        line: u32,
    },
    For {
        var: Name,
        iter: Expr,
        body: Vec<Stmt>,
        line: u32,
    },
    Return {
        value: Option<Expr>,
        line: u32,
    },
    Raise {
        /// Exception kind name, e.g. `ValueError`.
        kind: String,
        message: Option<Expr>,
        line: u32,
    },
    Try {
        body: Vec<Stmt>,
        handlers: Vec<ExceptHandler>,
        line: u32,
    },
    /// A `def`, with the resolution of the name it binds.
    FuncDef(Arc<FuncDef>, Resolution),
    /// A `class`, with the resolution of the name it binds.
    ClassDef(ClassDef, Resolution),
    /// `import m`: binds the name `m`.
    Import {
        module: Name,
        line: u32,
    },
    Pass,
    Break(u32),
    Continue(u32),
}

/// One `except` clause of a `try` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct ExceptHandler {
    /// Exception kind to catch; `None` is a bare `except:` catching all.
    pub kind: Option<String>,
    /// Optional `as name` binding (bound to the exception message string).
    pub bind: Option<Name>,
    pub body: Vec<Stmt>,
    pub line: u32,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncDef {
    pub name: String,
    pub params: Vec<String>,
    pub body: Vec<Stmt>,
    pub line: u32,
    /// The frame layout: slot `i` holds local `locals[i]`. Parameters come
    /// first, in order, then every other name the body binds.
    pub locals: Vec<String>,
    /// The slot of each parameter. Repeated parameter names share a slot.
    pub param_slots: Vec<u32>,
}

/// A class definition: only methods are supported (no class-level fields).
#[derive(Debug, Clone, PartialEq)]
pub struct ClassDef {
    pub name: String,
    pub methods: Vec<Arc<FuncDef>>,
    pub line: u32,
}

impl Module {
    /// All top-level function definitions in the module.
    pub fn functions(&self) -> impl Iterator<Item = &FuncDef> {
        self.body.iter().filter_map(|s| match s {
            Stmt::FuncDef(f, _) => Some(f.as_ref()),
            _ => None,
        })
    }

    /// All top-level class definitions in the module.
    pub fn classes(&self) -> impl Iterator<Item = &ClassDef> {
        self.body.iter().filter_map(|s| match s {
            Stmt::ClassDef(c, _) => Some(c),
            _ => None,
        })
    }

    /// Modules imported anywhere at the top level.
    pub fn imports(&self) -> Vec<&str> {
        self.body
            .iter()
            .filter_map(|s| match s {
                Stmt::Import { module, .. } => Some(module.id.as_str()),
                _ => None,
            })
            .collect()
    }

    /// Modules imported *anywhere* in the module, including inside function
    /// bodies, class methods, and nested control flow. Used to decide
    /// whether executing the module could ever trigger a dynamic package
    /// install (the execute-parse-install-rerun loop of §4.2).
    pub fn all_imports(&self) -> Vec<&str> {
        fn walk<'a>(body: &'a [Stmt], out: &mut Vec<&'a str>) {
            for s in body {
                match s {
                    Stmt::Import { module, .. } => out.push(module.id.as_str()),
                    Stmt::If {
                        then_body,
                        else_body,
                        ..
                    } => {
                        walk(then_body, out);
                        walk(else_body, out);
                    }
                    Stmt::While { body, .. } | Stmt::For { body, .. } => walk(body, out),
                    Stmt::Try { body, handlers, .. } => {
                        walk(body, out);
                        for h in handlers {
                            walk(&h.body, out);
                        }
                    }
                    Stmt::FuncDef(f, _) => walk(&f.body, out),
                    Stmt::ClassDef(c, _) => {
                        for m in &c.methods {
                            walk(&m.body, out);
                        }
                    }
                    _ => {}
                }
            }
        }
        let mut out = Vec::new();
        walk(&self.body, &mut out);
        out
    }

    /// True if the module has executable statements outside `def`/`class`
    /// (a "script" in AutoType's terminology, runnable standalone).
    pub fn has_script_body(&self) -> bool {
        self.body.iter().any(|s| {
            !matches!(
                s,
                Stmt::FuncDef(..) | Stmt::ClassDef(..) | Stmt::Import { .. } | Stmt::Pass
            )
        })
    }
}
