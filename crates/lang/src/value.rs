//! Runtime values for the PyLite interpreter.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

use crate::ast::FuncDef;

/// A runtime value. Reference types (`List`, `Dict`, `Object`) have shared
/// mutable interiors, matching Python semantics for mined code that mutates
/// `self` or accumulates into lists. Strings and function definitions are
/// `Arc`s shared with the parsed AST: a string literal or a `def` evaluates
/// to a refcount clone of its node.
#[derive(Clone)]
pub enum Value {
    None,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(Arc<str>),
    List(Rc<RefCell<Vec<Value>>>),
    Dict(Rc<RefCell<BTreeMap<String, Value>>>),
    /// A user-defined function (possibly a method before binding) together
    /// with the id of the file that defines it.
    Func(Arc<FuncDef>, u32),
    /// A bound method: receiver + function.
    Bound(Rc<RefCell<Object>>, Arc<FuncDef>, u32),
    /// A class, instantiable by calling it.
    Class(Rc<ClassObj>),
    /// An instance of a user-defined class.
    Object(Rc<RefCell<Object>>),
    /// A module namespace (from `import m`).
    Module(Rc<RefCell<Object>>),
    /// A native builtin function, dispatched by name.
    Builtin(&'static str),
    /// An open virtual file handle (supports `.read()` / `.readline()`).
    File(Rc<RefCell<FileHandle>>),
}

/// Class runtime representation.
pub struct ClassObj {
    pub name: String,
    pub methods: BTreeMap<String, Arc<FuncDef>>,
    pub file: u32,
}

/// Instance state: class name + attribute map.
pub struct Object {
    pub class: Option<Rc<ClassObj>>,
    pub attrs: BTreeMap<String, Value>,
}

impl Object {
    pub fn plain() -> Self {
        Object {
            class: None,
            attrs: BTreeMap::new(),
        }
    }
}

/// A virtual file opened via `open(...)` against the harness-provided
/// in-memory filesystem (AutoType's variant 6 feeds input through files).
pub struct FileHandle {
    pub contents: String,
    pub cursor: usize,
}

impl Value {
    /// Python truthiness.
    pub fn truthy(&self) -> bool {
        match self {
            Value::None => false,
            Value::Bool(b) => *b,
            Value::Int(i) => *i != 0,
            Value::Float(f) => *f != 0.0,
            Value::Str(s) => !s.is_empty(),
            Value::List(l) => !l.borrow().is_empty(),
            Value::Dict(d) => !d.borrow().is_empty(),
            _ => true,
        }
    }

    /// Human-readable type name for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::None => "NoneType",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "str",
            Value::List(_) => "list",
            Value::Dict(_) => "dict",
            Value::Func(..) | Value::Bound(..) | Value::Builtin(_) => "function",
            Value::Class(_) => "class",
            Value::Object(_) => "object",
            Value::Module(_) => "module",
            Value::File(_) => "file",
        }
    }

    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(Arc::from(s.into()))
    }

    pub fn list(items: Vec<Value>) -> Value {
        Value::List(Rc::new(RefCell::new(items)))
    }

    /// Structural equality following Python `==` (numbers compare across
    /// int/float; reference types compare by content).
    pub fn py_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::None, Value::None) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a == b,
            (Value::Int(a), Value::Float(b)) | (Value::Float(b), Value::Int(a)) => *a as f64 == *b,
            (Value::Bool(a), Value::Int(b)) | (Value::Int(b), Value::Bool(a)) => (*a as i64) == *b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::List(a), Value::List(b)) => {
                let (a, b) = (a.borrow(), b.borrow());
                a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| x.py_eq(y))
            }
            (Value::Dict(a), Value::Dict(b)) => {
                let (a, b) = (a.borrow(), b.borrow());
                a.len() == b.len() && a.iter().all(|(k, v)| b.get(k).is_some_and(|w| v.py_eq(w)))
            }
            _ => false,
        }
    }

    /// Render like Python's `str()`.
    pub fn display(&self) -> String {
        match self {
            Value::None => "None".to_string(),
            Value::Bool(true) => "True".to_string(),
            Value::Bool(false) => "False".to_string(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => {
                if f.fract() == 0.0 && f.is_finite() {
                    format!("{f:.1}")
                } else {
                    f.to_string()
                }
            }
            Value::Str(s) => s.to_string(),
            Value::List(l) => {
                let inner: Vec<String> = l.borrow().iter().map(|v| v.repr()).collect();
                format!("[{}]", inner.join(", "))
            }
            Value::Dict(d) => {
                let inner: Vec<String> = d
                    .borrow()
                    .iter()
                    .map(|(k, v)| format!("{k:?}: {}", v.repr()))
                    .collect();
                format!("{{{}}}", inner.join(", "))
            }
            Value::Func(f, _) => format!("<function {}>", f.name),
            Value::Bound(_, f, _) => format!("<bound method {}>", f.name),
            Value::Builtin(name) => format!("<builtin {name}>"),
            Value::Class(c) => format!("<class {}>", c.name),
            Value::Object(o) => {
                let o = o.borrow();
                match &o.class {
                    Some(c) => format!("<{} instance>", c.name),
                    None => "<object>".to_string(),
                }
            }
            Value::Module(_) => "<module>".to_string(),
            Value::File(_) => "<file>".to_string(),
        }
    }

    /// Render like Python's `repr()` (strings get quotes).
    pub fn repr(&self) -> String {
        match self {
            Value::Str(s) => format!("{:?}", s.as_ref()),
            other => other.display(),
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.repr())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthiness_matches_python() {
        assert!(!Value::None.truthy());
        assert!(!Value::Int(0).truthy());
        assert!(Value::Int(-1).truthy());
        assert!(!Value::str("").truthy());
        assert!(Value::str("x").truthy());
        assert!(!Value::list(vec![]).truthy());
        assert!(Value::list(vec![Value::Int(1)]).truthy());
    }

    #[test]
    fn equality_crosses_numeric_types() {
        assert!(Value::Int(3).py_eq(&Value::Float(3.0)));
        assert!(!Value::Int(3).py_eq(&Value::Float(3.5)));
        assert!(Value::Bool(true).py_eq(&Value::Int(1)));
    }

    #[test]
    fn list_equality_is_structural() {
        let a = Value::list(vec![Value::Int(1), Value::str("x")]);
        let b = Value::list(vec![Value::Int(1), Value::str("x")]);
        assert!(a.py_eq(&b));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Bool(true).display(), "True");
        assert_eq!(Value::None.display(), "None");
        assert_eq!(Value::Float(2.0).display(), "2.0");
        assert_eq!(
            Value::list(vec![Value::str("a"), Value::Int(1)]).display(),
            "[\"a\", 1]"
        );
    }
}
