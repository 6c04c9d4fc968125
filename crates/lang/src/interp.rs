//! Tree-walking interpreter for PyLite with trace instrumentation.
//!
//! Semantics follow Python 2.7 where it matters to mined type-detection
//! code — notably `/` on two integers is *floor* division, which the paper's
//! Listing 1 relies on (`num / 1000 == 4` to detect Visa prefixes).
//!
//! Every `if`/`elif`/`while` condition evaluation emits a
//! [`TraceEvent::Branch`]; every executed `return` emits a
//! [`TraceEvent::Return`]; an exception escaping a public entry point emits a
//! [`TraceEvent::Exception`]. Tracing is inter-procedural: events from all
//! transitively called functions land in the same tracer, exactly like the
//! paper's whole-repository bytecode instrumentation (Appendix D.2).
//!
//! Execution is bounded by deterministic *fuel* (one unit per statement /
//! expression node) standing in for AutoType's 30-second watchdog.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

use crate::ast::*;
use crate::error::PyError;
use crate::parser::{parse_source, ParseError};
use crate::trace::{SiteId, Trace, TraceEvent, Tracer};
use crate::value::{ClassObj, Object, Value};

/// A named, parsed source file inside a [`Program`].
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Module name (the file name without `.py`).
    pub name: String,
    pub module: Module,
}

/// A set of source files that can import each other — one crawled
/// repository, plus any "pip-installed" packages the harness has added.
///
/// Files are stored behind `Arc`, so cloning a `Program` shares every parsed
/// AST (parse once, execute many): clones are cheap enough to hand one
/// executor per worker in the parallel trace engine.
#[derive(Debug, Clone, Default)]
pub struct Program {
    pub files: Vec<Arc<SourceFile>>,
}

impl Program {
    pub fn new() -> Self {
        Program::default()
    }

    /// Parse `source` and add it under `name`; returns the new file id.
    pub fn add_file(&mut self, name: &str, source: &str) -> Result<u32, ParseError> {
        let module = parse_source(source)?;
        self.files.push(Arc::new(SourceFile {
            name: name.to_string(),
            module,
        }));
        Ok((self.files.len() - 1) as u32)
    }

    /// Add an already-parsed module.
    pub fn add_module(&mut self, name: &str, module: Module) -> u32 {
        self.files.push(Arc::new(SourceFile {
            name: name.to_string(),
            module,
        }));
        (self.files.len() - 1) as u32
    }

    pub fn file_id(&self, name: &str) -> Option<u32> {
        self.files
            .iter()
            .position(|f| f.name == name)
            .map(|i| i as u32)
    }

    pub fn file(&self, id: u32) -> &SourceFile {
        &self.files[id as usize]
    }
}

/// Simulated process I/O for the implicit-parameter invocation variants of
/// Appendix D.1: `sys.argv`, `input()`, and `open()` on a virtual filesystem.
#[derive(Debug, Clone, Default)]
pub struct Io {
    pub stdin: Option<String>,
    pub argv: Vec<String>,
    pub files: BTreeMap<String, String>,
}

/// Default fuel per execution: generous enough for real validators, small
/// enough to cut off accidental `while True` loops quickly.
pub const DEFAULT_FUEL: u64 = 200_000;

const MAX_DEPTH: usize = 48;

/// Control flow result of executing a statement or block.
enum Flow {
    Normal,
    Break,
    Continue,
    Return(Value),
}

type Globals = Rc<RefCell<Object>>;

/// Execution environment: module globals plus optional function locals.
struct Env {
    file: u32,
    globals: Globals,
    locals: Option<BTreeMap<String, Value>>,
}

impl Env {
    fn get(&self, name: &str) -> Option<Value> {
        if let Some(locals) = &self.locals {
            if let Some(v) = locals.get(name) {
                return Some(v.clone());
            }
        }
        self.globals.borrow().attrs.get(name).cloned()
    }

    fn set(&mut self, name: &str, value: Value) {
        match &mut self.locals {
            Some(locals) => {
                locals.insert(name.to_string(), value);
            }
            None => {
                self.globals
                    .borrow_mut()
                    .attrs
                    .insert(name.to_string(), value);
            }
        }
    }
}

/// The PyLite interpreter.
///
/// One interpreter executes against one [`Program`]; a fresh [`Tracer`] can
/// be installed per run via [`Interp::reset_trace`].
pub struct Interp<'p> {
    program: &'p Program,
    pub(crate) io: Io,
    pub(crate) stdout: String,
    tracer: Tracer,
    fuel: u64,
    initial_fuel: u64,
    depth: usize,
    module_globals: Vec<Option<Globals>>,
    loading: Vec<bool>,
}

impl<'p> Interp<'p> {
    pub fn new(program: &'p Program) -> Self {
        Self::with_options(program, Io::default(), DEFAULT_FUEL)
    }

    pub fn with_options(program: &'p Program, io: Io, fuel: u64) -> Self {
        let n = program.files.len();
        Interp {
            program,
            io,
            stdout: String::new(),
            tracer: Tracer::new(),
            fuel,
            initial_fuel: fuel,
            depth: 0,
            module_globals: vec![None; n],
            loading: vec![false; n],
        }
    }

    /// Replace the tracer, returning the trace gathered so far.
    pub fn reset_trace(&mut self) -> Trace {
        std::mem::replace(&mut self.tracer, Tracer::new()).into_trace()
    }

    /// Events recorded so far (without resetting).
    pub fn trace_events(&self) -> &[TraceEvent] {
        &self.tracer.trace.events
    }

    /// Fuel consumed since the interpreter was built — the deterministic
    /// analogue of wall-clock execution time (used for the Figure 14
    /// experiment).
    pub fn fuel_used(&self) -> u64 {
        self.initial_fuel - self.fuel
    }

    /// Captured `print` output.
    pub fn stdout(&self) -> &str {
        &self.stdout
    }

    // ------------------------------------------------------------------
    // Public entry points (these record escaping exceptions in the trace).
    // ------------------------------------------------------------------

    /// Ensure a module's top level has executed; returns its namespace.
    pub fn load_module(&mut self, file: u32) -> Result<Globals, PyError> {
        if let Some(g) = &self.module_globals[file as usize] {
            return Ok(g.clone());
        }
        if self.loading[file as usize] {
            // Import cycle: expose the (empty) namespace, like CPython.
            let g: Globals = Rc::new(RefCell::new(Object::plain()));
            self.module_globals[file as usize] = Some(g.clone());
            return Ok(g);
        }
        self.loading[file as usize] = true;
        let g: Globals = Rc::new(RefCell::new(Object::plain()));
        self.module_globals[file as usize] = Some(g.clone());
        // Copy the program reference out of `self` so the body borrow is
        // tied to `'p`, not to `self` (avoids cloning the AST per load).
        let program: &'p Program = self.program;
        let body = &program.file(file).module.body;
        let mut env = Env {
            file,
            globals: g.clone(),
            locals: None,
        };
        let result = self.exec_block(body, &mut env);
        self.loading[file as usize] = false;
        match result {
            Ok(_) => Ok(g),
            Err(e) => {
                // A failed load leaves the module unusable.
                self.module_globals[file as usize] = None;
                Err(e)
            }
        }
    }

    /// Call a top-level function of `file` by name with `args`, recording an
    /// `Exception` trace event if the call errors out.
    pub fn call_function(
        &mut self,
        file: u32,
        name: &str,
        args: Vec<Value>,
    ) -> Result<Value, PyError> {
        let result = self.call_function_inner(file, name, args);
        if let Err(e) = &result {
            self.tracer.exception(&e.kind);
        }
        result
    }

    fn call_function_inner(
        &mut self,
        file: u32,
        name: &str,
        args: Vec<Value>,
    ) -> Result<Value, PyError> {
        let globals = self.load_module(file)?;
        let func = globals
            .borrow()
            .attrs
            .get(name)
            .cloned()
            .ok_or_else(|| PyError::name_error(name, 0))?;
        self.call_value(func, args, 0)
    }

    /// Fetch a module-level binding (class, function, constant).
    pub fn get_global(&mut self, file: u32, name: &str) -> Result<Value, PyError> {
        let globals = self.load_module(file)?;
        let v = globals.borrow().attrs.get(name).cloned();
        v.ok_or_else(|| PyError::name_error(name, 0))
    }

    /// Run a file as a standalone script (executes its top level), recording
    /// an `Exception` trace event on failure. Returns the module namespace.
    pub fn run_script(&mut self, file: u32) -> Result<Globals, PyError> {
        let result = self.load_module(file);
        if let Err(e) = &result {
            self.tracer.exception(&e.kind);
        }
        result
    }

    /// Call an arbitrary callable value (function, bound method, class,
    /// builtin) with `args`, recording an `Exception` trace event on failure.
    pub fn call(&mut self, callee: Value, args: Vec<Value>) -> Result<Value, PyError> {
        let result = self.call_value(callee, args, 0);
        if let Err(e) = &result {
            self.tracer.exception(&e.kind);
        }
        result
    }

    /// Invoke `receiver.method(args)` on an object instance, recording an
    /// `Exception` trace event on failure (used by the invocation variants
    /// of Appendix D.1).
    pub fn invoke_method(
        &mut self,
        receiver: Value,
        method: &str,
        args: Vec<Value>,
    ) -> Result<Value, PyError> {
        let result = (|| {
            let bound = self.get_attr(receiver, method, 0)?;
            self.call_value(bound, args, 0)
        })();
        if let Err(e) = &result {
            self.tracer.exception(&e.kind);
        }
        result
    }

    // ------------------------------------------------------------------
    // Core execution.
    // ------------------------------------------------------------------

    /// Fuel charging hook for builtins that do data-proportional work.
    pub(crate) fn charge_external(&mut self, amount: u64) -> Result<(), PyError> {
        self.charge(amount)
    }

    #[inline]
    fn charge(&mut self, amount: u64) -> Result<(), PyError> {
        if self.fuel < amount {
            self.fuel = 0;
            return Err(PyError::fuel_exhausted());
        }
        self.fuel -= amount;
        Ok(())
    }

    /// Statement fuel is charged per *block* rather than per statement: one
    /// decrement for the whole straight-line body instead of one per step.
    /// Loops re-enter their body block every iteration (and `while`/`for`
    /// charge the iteration itself), so runaway loops still exhaust fuel at
    /// the same rate and fuel stays deterministic — an early `return` merely
    /// pays for the statements it skips.
    fn exec_block(&mut self, body: &[Stmt], env: &mut Env) -> Result<Flow, PyError> {
        self.charge(body.len() as u64)?;
        for stmt in body {
            match self.exec_stmt(stmt, env)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, stmt: &Stmt, env: &mut Env) -> Result<Flow, PyError> {
        match stmt {
            Stmt::Expr(e) => {
                self.eval(e, env)?;
                Ok(Flow::Normal)
            }
            Stmt::Assign {
                target,
                value,
                line,
            } => {
                let v = self.eval(value, env)?;
                self.assign(target, v, env, *line)?;
                Ok(Flow::Normal)
            }
            Stmt::AugAssign {
                target,
                op,
                value,
                line,
            } => {
                let current = self.read_target(target, env, *line)?;
                let rhs = self.eval(value, env)?;
                let v = self.binop(*op, current, rhs, *line)?;
                self.assign(target, v, env, *line)?;
                Ok(Flow::Normal)
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
                line,
            } => {
                let c = self.eval(cond, env)?;
                let taken = c.truthy();
                self.tracer.branch(SiteId::new(env.file, *line), taken);
                if taken {
                    self.exec_block(then_body, env)
                } else {
                    self.exec_block(else_body, env)
                }
            }
            Stmt::While { cond, body, line } => {
                loop {
                    self.charge(1)?;
                    let c = self.eval(cond, env)?;
                    let taken = c.truthy();
                    self.tracer.branch(SiteId::new(env.file, *line), taken);
                    if !taken {
                        break;
                    }
                    match self.exec_block(body, env)? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                        ret @ Flow::Return(_) => return Ok(ret),
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::For {
                var,
                iter,
                body,
                line,
            } => {
                let iterable = self.eval(iter, env)?;
                let items = self.iterate(iterable, *line)?;
                for item in items {
                    self.charge(1)?;
                    env.set(var, item);
                    match self.exec_block(body, env)? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                        ret @ Flow::Return(_) => return Ok(ret),
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Return { value, line } => {
                let v = match value {
                    Some(e) => self.eval(e, env)?,
                    None => Value::None,
                };
                self.tracer.ret(SiteId::new(env.file, *line), &v);
                Ok(Flow::Return(v))
            }
            Stmt::Raise {
                kind,
                message,
                line,
            } => {
                let msg = match message {
                    Some(e) => self.eval(e, env)?.display(),
                    None => String::new(),
                };
                Err(PyError::new(kind.clone(), msg, *line))
            }
            Stmt::Try { body, handlers, .. } => match self.exec_block(body, env) {
                Ok(flow) => Ok(flow),
                Err(e) if e.catchable() => {
                    for handler in handlers {
                        let matches = match &handler.kind {
                            None => true,
                            Some(k) => k == &e.kind || k == "Exception",
                        };
                        if matches {
                            if let Some(bind) = &handler.bind {
                                env.set(bind, Value::str(e.message.clone()));
                            }
                            return self.exec_block(&handler.body, env);
                        }
                    }
                    Err(e)
                }
                Err(e) => Err(e),
            },
            Stmt::FuncDef(f) => {
                env.set(&f.name, Value::Func(f.clone(), env.file));
                Ok(Flow::Normal)
            }
            Stmt::ClassDef(c) => {
                let mut methods = BTreeMap::new();
                for m in &c.methods {
                    methods.insert(m.name.clone(), m.clone());
                }
                env.set(
                    &c.name,
                    Value::Class(Rc::new(ClassObj {
                        name: c.name.clone(),
                        methods,
                        file: env.file,
                    })),
                );
                Ok(Flow::Normal)
            }
            Stmt::Import { module, line } => {
                let value = self.import_module(module, *line)?;
                env.set(module, value);
                Ok(Flow::Normal)
            }
            Stmt::Pass => Ok(Flow::Normal),
            Stmt::Break(_) => Ok(Flow::Break),
            Stmt::Continue(_) => Ok(Flow::Continue),
        }
    }

    fn import_module(&mut self, name: &str, line: u32) -> Result<Value, PyError> {
        if name == "sys" {
            let mut obj = Object::plain();
            let argv: Vec<Value> = self.io.argv.iter().map(|s| Value::str(s.clone())).collect();
            obj.attrs.insert("argv".to_string(), Value::list(argv));
            return Ok(Value::Module(Rc::new(RefCell::new(obj))));
        }
        match self.program.file_id(name) {
            Some(id) => {
                let globals = self.load_module(id)?;
                Ok(Value::Module(globals))
            }
            None => Err(PyError::import_error(name, line)),
        }
    }

    fn assign(
        &mut self,
        target: &Target,
        value: Value,
        env: &mut Env,
        line: u32,
    ) -> Result<(), PyError> {
        match target {
            Target::Name(name) => {
                env.set(name, value);
                Ok(())
            }
            Target::Attr { object, name } => {
                let obj = self.eval(object, env)?;
                match obj {
                    Value::Object(o) | Value::Module(o) => {
                        o.borrow_mut().attrs.insert(name.clone(), value);
                        Ok(())
                    }
                    other => Err(PyError::attribute_error(other.type_name(), name, line)),
                }
            }
            Target::Index { object, index } => {
                let obj = self.eval(object, env)?;
                let idx = self.eval(index, env)?;
                match obj {
                    Value::List(l) => {
                        let i = self.list_index(&l.borrow(), &idx, line)?;
                        l.borrow_mut()[i] = value;
                        Ok(())
                    }
                    Value::Dict(d) => {
                        let key = dict_key(&idx, line)?;
                        d.borrow_mut().insert(key, value);
                        Ok(())
                    }
                    other => Err(PyError::type_error(
                        format!("'{}' does not support item assignment", other.type_name()),
                        line,
                    )),
                }
            }
        }
    }

    fn read_target(&mut self, target: &Target, env: &mut Env, line: u32) -> Result<Value, PyError> {
        let expr = match target {
            Target::Name(name) => Expr::Name(name.clone()),
            Target::Attr { object, name } => Expr::Attr {
                object: Box::new(object.clone()),
                name: name.clone(),
                line,
            },
            Target::Index { object, index } => Expr::Index {
                object: Box::new(object.clone()),
                index: Box::new(index.clone()),
                line,
            },
        };
        self.eval(&expr, env)
    }

    fn iterate(&mut self, value: Value, line: u32) -> Result<Vec<Value>, PyError> {
        match value {
            Value::Str(s) => Ok(s.chars().map(|c| Value::str(c.to_string())).collect()),
            Value::List(l) => Ok(l.borrow().clone()),
            Value::Dict(d) => Ok(d.borrow().keys().map(|k| Value::str(k.clone())).collect()),
            other => Err(PyError::type_error(
                format!("'{}' object is not iterable", other.type_name()),
                line,
            )),
        }
    }

    // ------------------------------------------------------------------
    // Expression evaluation.
    // ------------------------------------------------------------------

    fn eval(&mut self, expr: &Expr, env: &mut Env) -> Result<Value, PyError> {
        self.charge(1)?;
        match expr {
            Expr::None => Ok(Value::None),
            Expr::Bool(b) => Ok(Value::Bool(*b)),
            Expr::Int(i) => Ok(Value::Int(*i)),
            Expr::Float(f) => Ok(Value::Float(*f)),
            Expr::Str(s) => Ok(Value::Str(s.clone())),
            Expr::Name(name) => match env.get(name) {
                Some(v) => Ok(v),
                None => match crate::builtins::lookup(name) {
                    Some(v) => Ok(v),
                    None => Err(PyError::name_error(name, 0)),
                },
            },
            Expr::List(items) => {
                let mut out = Vec::with_capacity(items.len());
                for item in items {
                    out.push(self.eval(item, env)?);
                }
                Ok(Value::list(out))
            }
            Expr::Dict(items) => {
                let mut map = BTreeMap::new();
                for (k, v) in items {
                    let key = self.eval(k, env)?;
                    let value = self.eval(v, env)?;
                    map.insert(dict_key(&key, 0)?, value);
                }
                Ok(Value::Dict(Rc::new(RefCell::new(map))))
            }
            Expr::Bin {
                op,
                left,
                right,
                line,
            } => {
                let l = self.eval(left, env)?;
                let r = self.eval(right, env)?;
                self.binop(*op, l, r, *line)
            }
            Expr::Cmp {
                op,
                left,
                right,
                line,
            } => {
                let l = self.eval(left, env)?;
                let r = self.eval(right, env)?;
                self.cmpop(*op, l, r, *line)
            }
            Expr::BoolOp {
                is_and,
                left,
                right,
            } => {
                let l = self.eval(left, env)?;
                if *is_and {
                    if l.truthy() {
                        self.eval(right, env)
                    } else {
                        Ok(l)
                    }
                } else if l.truthy() {
                    Ok(l)
                } else {
                    self.eval(right, env)
                }
            }
            Expr::Not(inner) => {
                let v = self.eval(inner, env)?;
                Ok(Value::Bool(!v.truthy()))
            }
            Expr::Neg(inner, line) => {
                let v = self.eval(inner, env)?;
                match v {
                    Value::Int(i) => Ok(Value::Int(-i)),
                    Value::Float(f) => Ok(Value::Float(-f)),
                    other => Err(PyError::type_error(
                        format!("bad operand type for unary -: '{}'", other.type_name()),
                        *line,
                    )),
                }
            }
            Expr::Call { callee, args, line } => self.eval_call(callee, args, env, *line),
            Expr::Attr { object, name, line } => {
                let obj = self.eval(object, env)?;
                self.get_attr(obj, name, *line)
            }
            Expr::Index {
                object,
                index,
                line,
            } => {
                let obj = self.eval(object, env)?;
                let idx = self.eval(index, env)?;
                self.index(obj, idx, *line)
            }
            Expr::Slice {
                object,
                low,
                high,
                line,
            } => {
                let obj = self.eval(object, env)?;
                let low = match low {
                    Some(e) => Some(self.eval(e, env)?),
                    None => None,
                };
                let high = match high {
                    Some(e) => Some(self.eval(e, env)?),
                    None => None,
                };
                self.slice(obj, low, high, *line)
            }
        }
    }

    fn eval_call(
        &mut self,
        callee: &Expr,
        args: &[Expr],
        env: &mut Env,
        line: u32,
    ) -> Result<Value, PyError> {
        let mut arg_values = Vec::with_capacity(args.len());
        // Method-call fast path: dispatch primitive methods by receiver.
        if let Expr::Attr { object, name, .. } = callee {
            let recv = self.eval(object, env)?;
            for a in args {
                arg_values.push(self.eval(a, env)?);
            }
            return match &recv {
                Value::Object(_) | Value::Module(_) | Value::Class(_) => {
                    let f = self.get_attr(recv, name, line)?;
                    self.call_value(f, arg_values, line)
                }
                _ => crate::builtins::call_method(self, recv, name, arg_values, line),
            };
        }
        let callee_value = self.eval(callee, env)?;
        for a in args {
            arg_values.push(self.eval(a, env)?);
        }
        self.call_value(callee_value, arg_values, line)
    }

    pub(crate) fn call_value(
        &mut self,
        callee: Value,
        args: Vec<Value>,
        line: u32,
    ) -> Result<Value, PyError> {
        match callee {
            Value::Func(f, file) => self.call_funcdef(&f, file, None, args, line),
            Value::Bound(recv, f, file) => {
                self.call_funcdef(&f, file, Some(Value::Object(recv)), args, line)
            }
            Value::Class(class) => {
                let instance = Rc::new(RefCell::new(Object {
                    class: Some(class.clone()),
                    attrs: BTreeMap::new(),
                }));
                if let Some(init) = class.methods.get("__init__").cloned() {
                    self.call_funcdef(
                        &init,
                        class.file,
                        Some(Value::Object(instance.clone())),
                        args,
                        line,
                    )?;
                } else if !args.is_empty() {
                    return Err(PyError::type_error(
                        format!("{}() takes no arguments", class.name),
                        line,
                    ));
                }
                Ok(Value::Object(instance))
            }
            Value::Builtin(name) => crate::builtins::call(self, name, args, line),
            other => Err(PyError::type_error(
                format!("'{}' object is not callable", other.type_name()),
                line,
            )),
        }
    }

    fn call_funcdef(
        &mut self,
        func: &FuncDef,
        file: u32,
        receiver: Option<Value>,
        args: Vec<Value>,
        line: u32,
    ) -> Result<Value, PyError> {
        if self.depth >= MAX_DEPTH {
            return Err(PyError::recursion());
        }
        let mut locals = BTreeMap::new();
        let mut all_args = Vec::new();
        if let Some(r) = receiver {
            all_args.push(r);
        }
        all_args.extend(args);
        if all_args.len() != func.params.len() {
            return Err(PyError::type_error(
                format!(
                    "{}() takes {} arguments ({} given)",
                    func.name,
                    func.params.len(),
                    all_args.len()
                ),
                line,
            ));
        }
        for (param, arg) in func.params.iter().zip(all_args) {
            locals.insert(param.clone(), arg);
        }
        let globals = self.load_module(file)?;
        let mut env = Env {
            file,
            globals,
            locals: Some(locals),
        };
        self.depth += 1;
        let result = self.exec_block(&func.body, &mut env);
        self.depth -= 1;
        match result? {
            Flow::Return(v) => Ok(v),
            _ => Ok(Value::None),
        }
    }

    fn get_attr(&mut self, obj: Value, name: &str, line: u32) -> Result<Value, PyError> {
        match &obj {
            Value::Object(o) => {
                if let Some(v) = o.borrow().attrs.get(name) {
                    return Ok(v.clone());
                }
                let class = o.borrow().class.clone();
                if let Some(class) = class {
                    if let Some(m) = class.methods.get(name) {
                        return Ok(Value::Bound(o.clone(), m.clone(), class.file));
                    }
                }
                let type_name = o
                    .borrow()
                    .class
                    .as_ref()
                    .map(|c| c.name.clone())
                    .unwrap_or_else(|| "object".to_string());
                Err(PyError::attribute_error(&type_name, name, line))
            }
            Value::Module(m) => m
                .borrow()
                .attrs
                .get(name)
                .cloned()
                .ok_or_else(|| PyError::attribute_error("module", name, line)),
            Value::Class(c) => c
                .methods
                .get(name)
                .map(|m| Value::Func(m.clone(), c.file))
                .ok_or_else(|| PyError::attribute_error(&c.name, name, line)),
            other => Err(PyError::attribute_error(other.type_name(), name, line)),
        }
    }

    fn index(&mut self, obj: Value, idx: Value, line: u32) -> Result<Value, PyError> {
        match obj {
            Value::Str(s) => {
                let chars: Vec<char> = s.chars().collect();
                let i = normalize_index(&idx, chars.len(), line)?;
                match chars.get(i) {
                    Some(c) => Ok(Value::str(c.to_string())),
                    None => Err(PyError::index_error(line)),
                }
            }
            Value::List(l) => {
                let borrowed = l.borrow();
                let i = self.list_index(&borrowed, &idx, line)?;
                Ok(borrowed[i].clone())
            }
            Value::Dict(d) => {
                let key = dict_key(&idx, line)?;
                d.borrow()
                    .get(&key)
                    .cloned()
                    .ok_or_else(|| PyError::key_error(&key, line))
            }
            other => Err(PyError::type_error(
                format!("'{}' object is not subscriptable", other.type_name()),
                line,
            )),
        }
    }

    fn list_index(&self, list: &[Value], idx: &Value, line: u32) -> Result<usize, PyError> {
        let i = normalize_index(idx, list.len(), line)?;
        if i < list.len() {
            Ok(i)
        } else {
            Err(PyError::index_error(line))
        }
    }

    fn slice(
        &mut self,
        obj: Value,
        low: Option<Value>,
        high: Option<Value>,
        line: u32,
    ) -> Result<Value, PyError> {
        fn bound(v: Option<Value>, default: i64, len: i64, line: u32) -> Result<i64, PyError> {
            let raw = match v {
                None => default,
                Some(Value::Int(i)) => i,
                Some(other) => {
                    return Err(PyError::type_error(
                        format!("slice indices must be integers, not {}", other.type_name()),
                        line,
                    ))
                }
            };
            let adjusted = if raw < 0 { raw + len } else { raw };
            Ok(adjusted.clamp(0, len))
        }
        match obj {
            Value::Str(s) => {
                let chars: Vec<char> = s.chars().collect();
                let len = chars.len() as i64;
                let lo = bound(low, 0, len, line)?;
                let hi = bound(high, len, len, line)?;
                let out: String = if lo < hi {
                    chars[lo as usize..hi as usize].iter().collect()
                } else {
                    String::new()
                };
                Ok(Value::str(out))
            }
            Value::List(l) => {
                let items = l.borrow();
                let len = items.len() as i64;
                let lo = bound(low, 0, len, line)?;
                let hi = bound(high, len, len, line)?;
                let out: Vec<Value> = if lo < hi {
                    items[lo as usize..hi as usize].to_vec()
                } else {
                    Vec::new()
                };
                Ok(Value::list(out))
            }
            other => Err(PyError::type_error(
                format!("'{}' object is not sliceable", other.type_name()),
                line,
            )),
        }
    }

    fn binop(&mut self, op: BinOp, l: Value, r: Value, line: u32) -> Result<Value, PyError> {
        use BinOp::*;
        match (&l, &r) {
            (Value::Int(a), Value::Int(b)) => {
                let (a, b) = (*a, *b);
                match op {
                    Add => Ok(Value::Int(a.wrapping_add(b))),
                    Sub => Ok(Value::Int(a.wrapping_sub(b))),
                    Mul => Ok(Value::Int(a.wrapping_mul(b))),
                    // Python 2 semantics: int / int is floor division.
                    Div | FloorDiv => {
                        if b == 0 {
                            Err(PyError::new(
                                "ZeroDivisionError",
                                "integer division or modulo by zero",
                                line,
                            ))
                        } else {
                            Ok(Value::Int(floor_div(a, b)))
                        }
                    }
                    Mod => {
                        if b == 0 {
                            Err(PyError::new(
                                "ZeroDivisionError",
                                "integer division or modulo by zero",
                                line,
                            ))
                        } else {
                            Ok(Value::Int(py_mod(a, b)))
                        }
                    }
                    Pow => {
                        if b >= 0 {
                            let exp = u32::try_from(b.min(63)).unwrap_or(63);
                            Ok(Value::Int(a.wrapping_pow(exp)))
                        } else {
                            Ok(Value::Float((a as f64).powi(b as i32)))
                        }
                    }
                }
            }
            (a, b) if is_numeric(a) && is_numeric(b) => {
                let a = to_f64(a);
                let b = to_f64(b);
                match op {
                    Add => Ok(Value::Float(a + b)),
                    Sub => Ok(Value::Float(a - b)),
                    Mul => Ok(Value::Float(a * b)),
                    Div => {
                        if b == 0.0 {
                            Err(PyError::new("ZeroDivisionError", "float division", line))
                        } else {
                            Ok(Value::Float(a / b))
                        }
                    }
                    FloorDiv => {
                        if b == 0.0 {
                            Err(PyError::new("ZeroDivisionError", "float division", line))
                        } else {
                            Ok(Value::Float((a / b).floor()))
                        }
                    }
                    Mod => {
                        if b == 0.0 {
                            Err(PyError::new("ZeroDivisionError", "float modulo", line))
                        } else {
                            Ok(Value::Float(a - b * (a / b).floor()))
                        }
                    }
                    Pow => Ok(Value::Float(a.powf(b))),
                }
            }
            (Value::Str(a), Value::Str(b)) if op == Add => {
                let mut out = String::with_capacity(a.len() + b.len());
                out.push_str(a);
                out.push_str(b);
                Ok(Value::str(out))
            }
            (Value::Str(s), Value::Int(n)) | (Value::Int(n), Value::Str(s)) if op == Mul => {
                let n = (*n).max(0) as usize;
                self.charge((s.len() as u64).saturating_mul(n as u64).max(1))?;
                Ok(Value::str(s.repeat(n)))
            }
            (Value::List(a), Value::List(b)) if op == Add => {
                let mut out = a.borrow().clone();
                out.extend(b.borrow().iter().cloned());
                Ok(Value::list(out))
            }
            _ => Err(PyError::type_error(
                format!(
                    "unsupported operand type(s) for {:?}: '{}' and '{}'",
                    op,
                    l.type_name(),
                    r.type_name()
                ),
                line,
            )),
        }
    }

    fn cmpop(&mut self, op: CmpOp, l: Value, r: Value, line: u32) -> Result<Value, PyError> {
        use CmpOp::*;
        match op {
            Eq => Ok(Value::Bool(l.py_eq(&r))),
            NotEq => Ok(Value::Bool(!l.py_eq(&r))),
            In | NotIn => {
                let contains = match (&l, &r) {
                    (Value::Str(needle), Value::Str(hay)) => hay.contains(needle.as_ref()),
                    (item, Value::List(list)) => list.borrow().iter().any(|v| v.py_eq(item)),
                    (key, Value::Dict(d)) => {
                        let k = dict_key(key, line)?;
                        d.borrow().contains_key(&k)
                    }
                    (_, other) => {
                        return Err(PyError::type_error(
                            format!("argument of type '{}' is not iterable", other.type_name()),
                            line,
                        ))
                    }
                };
                Ok(Value::Bool(if op == In { contains } else { !contains }))
            }
            Lt | LtEq | Gt | GtEq => {
                let ord =
                    match (&l, &r) {
                        (a, b) if is_numeric(a) && is_numeric(b) => to_f64(a)
                            .partial_cmp(&to_f64(b))
                            .ok_or_else(|| PyError::type_error("unorderable floats", line))?,
                        (Value::Str(a), Value::Str(b)) => a.cmp(b),
                        (a, b) => {
                            return Err(PyError::type_error(
                                format!(
                                    "unorderable types: '{}' and '{}'",
                                    a.type_name(),
                                    b.type_name()
                                ),
                                line,
                            ))
                        }
                    };
                let result = match op {
                    Lt => ord == std::cmp::Ordering::Less,
                    LtEq => ord != std::cmp::Ordering::Greater,
                    Gt => ord == std::cmp::Ordering::Greater,
                    GtEq => ord != std::cmp::Ordering::Less,
                    _ => unreachable!(),
                };
                Ok(Value::Bool(result))
            }
        }
    }
}

/// Convert a value into a dict key (strings as-is, ints canonicalized).
pub(crate) fn dict_key(value: &Value, line: u32) -> Result<String, PyError> {
    match value {
        Value::Str(s) => Ok(s.to_string()),
        Value::Int(i) => Ok(i.to_string()),
        Value::Bool(b) => Ok(if *b { "1" } else { "0" }.to_string()),
        other => Err(PyError::type_error(
            format!("unhashable key type: '{}'", other.type_name()),
            line,
        )),
    }
}

fn normalize_index(idx: &Value, len: usize, line: u32) -> Result<usize, PyError> {
    let i = match idx {
        Value::Int(i) => *i,
        other => {
            return Err(PyError::type_error(
                format!("indices must be integers, not {}", other.type_name()),
                line,
            ))
        }
    };
    let adjusted = if i < 0 { i + len as i64 } else { i };
    if adjusted < 0 {
        return Err(PyError::index_error(line));
    }
    Ok(adjusted as usize)
}

fn is_numeric(v: &Value) -> bool {
    matches!(v, Value::Int(_) | Value::Float(_) | Value::Bool(_))
}

fn to_f64(v: &Value) -> f64 {
    match v {
        Value::Int(i) => *i as f64,
        Value::Float(f) => *f,
        Value::Bool(b) => *b as i64 as f64,
        _ => f64::NAN,
    }
}

/// Python floor division for integers.
fn floor_div(a: i64, b: i64) -> i64 {
    let q = a.wrapping_div(b);
    let r = a.wrapping_rem(b);
    if r != 0 && (r < 0) != (b < 0) {
        q - 1
    } else {
        q
    }
}

/// Python modulo: result has the sign of the divisor.
fn py_mod(a: i64, b: i64) -> i64 {
    let r = a.wrapping_rem(b);
    if r != 0 && (r < 0) != (b < 0) {
        r + b
    } else {
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_expr(body: &str) -> Value {
        let mut program = Program::new();
        let src = format!("def f(s):\n{}\n", indent(body));
        program.add_file("m", &src).unwrap();
        let mut interp = Interp::new(&program);
        interp.call_function(0, "f", vec![Value::str("x")]).unwrap()
    }

    fn indent(body: &str) -> String {
        body.lines()
            .map(|l| format!("    {l}"))
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn python2_integer_division() {
        assert!(run_expr("return 4147 / 1000").py_eq(&Value::Int(4)));
        assert!(run_expr("return -7 / 2").py_eq(&Value::Int(-4)));
        assert!(run_expr("return 7 // 2").py_eq(&Value::Int(3)));
    }

    #[test]
    fn python_modulo_sign() {
        assert!(run_expr("return -7 % 3").py_eq(&Value::Int(2)));
        assert!(run_expr("return 7 % -3").py_eq(&Value::Int(-2)));
    }

    #[test]
    fn luhn_checksum_runs() {
        let src = r#"
def luhn(s):
    total = 0
    flip = 0
    i = len(s) - 1
    while i >= 0:
        d = int(s[i])
        if flip % 2 == 1:
            d = d * 2
            if d > 9:
                d = d - 9
        total += d
        flip += 1
        i -= 1
    return total % 10 == 0
"#;
        let mut program = Program::new();
        program.add_file("card", src).unwrap();
        let mut interp = Interp::new(&program);
        let ok = interp
            .call_function(0, "luhn", vec![Value::str("4532015112830366")])
            .unwrap();
        assert!(ok.py_eq(&Value::Bool(true)));
        let bad = interp
            .call_function(0, "luhn", vec![Value::str("4532015112830367")])
            .unwrap();
        assert!(bad.py_eq(&Value::Bool(false)));
    }

    #[test]
    fn branches_are_traced_with_lines() {
        let src = "def f(s):\n    if len(s) > 2:\n        return True\n    return False\n";
        let mut program = Program::new();
        program.add_file("m", src).unwrap();
        let mut interp = Interp::new(&program);
        interp
            .call_function(0, "f", vec![Value::str("abc")])
            .unwrap();
        let trace = interp.reset_trace();
        assert!(trace.events.contains(&TraceEvent::Branch {
            site: SiteId::new(0, 2),
            taken: true
        }));
        assert!(trace
            .events
            .iter()
            .any(|e| matches!(e, TraceEvent::Return { site, .. } if site.line == 3)));
    }

    #[test]
    fn uncaught_exception_is_traced() {
        let src = "def f(s):\n    return int(s)\n";
        let mut program = Program::new();
        program.add_file("m", src).unwrap();
        let mut interp = Interp::new(&program);
        let err = interp
            .call_function(0, "f", vec![Value::str("notanint")])
            .unwrap_err();
        assert_eq!(err.kind, "ValueError");
        assert!(interp.reset_trace().has_exception("ValueError"));
    }

    #[test]
    fn try_except_catches_by_kind() {
        let src = r#"
def f(s):
    try:
        return int(s)
    except ValueError:
        return -1
"#;
        let mut program = Program::new();
        program.add_file("m", src).unwrap();
        let mut interp = Interp::new(&program);
        let v = interp
            .call_function(0, "f", vec![Value::str("zz")])
            .unwrap();
        assert!(v.py_eq(&Value::Int(-1)));
    }

    #[test]
    fn bare_except_catches_custom_raise() {
        let src = r#"
def f(s):
    try:
        raise BadInput('nope')
    except:
        return 0
"#;
        let mut program = Program::new();
        program.add_file("m", src).unwrap();
        let mut interp = Interp::new(&program);
        let v = interp.call_function(0, "f", vec![Value::str("x")]).unwrap();
        assert!(v.py_eq(&Value::Int(0)));
    }

    #[test]
    fn classes_and_methods_work() {
        let src = r#"
class CreditCard:
    def __init__(self, s):
        self.num = s
        self.brand = None
    def parse(self):
        prefix = int(self.num[:1])
        if prefix == 4:
            self.brand = 'Visa'
        return self.brand
"#;
        let mut program = Program::new();
        program.add_file("m", src).unwrap();
        let mut interp = Interp::new(&program);
        let class = interp.get_global(0, "CreditCard").unwrap();
        let obj = interp
            .call(class, vec![Value::str("4111111111111111")])
            .unwrap();
        let Value::Object(o) = &obj else { panic!() };
        let method = {
            let borrowed = o.borrow();
            let class = borrowed.class.clone().unwrap();
            Value::Bound(o.clone(), class.methods["parse"].clone(), class.file)
        };
        let brand = interp.call(method, vec![]).unwrap();
        assert!(brand.py_eq(&Value::str("Visa")));
    }

    #[test]
    fn imports_between_files_work() {
        let lib = "def double(x):\n    return x * 2\n";
        let main = "import lib\n\ndef f(s):\n    return lib.double(len(s))\n";
        let mut program = Program::new();
        program.add_file("lib", lib).unwrap();
        program.add_file("main", main).unwrap();
        let mut interp = Interp::new(&program);
        let v = interp
            .call_function(1, "f", vec![Value::str("abc")])
            .unwrap();
        assert!(v.py_eq(&Value::Int(6)));
    }

    #[test]
    fn missing_import_raises_import_error() {
        let src = "import nonexistent\n\ndef f(s):\n    return 1\n";
        let mut program = Program::new();
        program.add_file("m", src).unwrap();
        let mut interp = Interp::new(&program);
        let err = interp
            .call_function(0, "f", vec![Value::str("x")])
            .unwrap_err();
        assert_eq!(err.kind, "ImportError");
        assert!(err.message.contains("nonexistent"));
    }

    #[test]
    fn infinite_loop_hits_fuel_limit() {
        let src = "def f(s):\n    while True:\n        pass\n    return 1\n";
        let mut program = Program::new();
        program.add_file("m", src).unwrap();
        let mut interp = Interp::with_options(&program, Io::default(), 10_000);
        let err = interp
            .call_function(0, "f", vec![Value::str("x")])
            .unwrap_err();
        assert!(err.is_timeout());
    }

    #[test]
    fn fuel_timeout_is_not_catchable() {
        let src = "def f(s):\n    try:\n        while True:\n            pass\n    except:\n        return 'caught'\n    return 'done'\n";
        let mut program = Program::new();
        program.add_file("m", src).unwrap();
        let mut interp = Interp::with_options(&program, Io::default(), 10_000);
        assert!(interp
            .call_function(0, "f", vec![Value::str("x")])
            .unwrap_err()
            .is_timeout());
    }

    #[test]
    fn deep_recursion_is_bounded() {
        let src = "def f(s):\n    return f(s)\n";
        let mut program = Program::new();
        program.add_file("m", src).unwrap();
        let mut interp = Interp::new(&program);
        let err = interp
            .call_function(0, "f", vec![Value::str("x")])
            .unwrap_err();
        assert_eq!(err.kind, PyError::RECURSION);
    }

    #[test]
    fn string_slicing_and_negative_indices() {
        assert!(run_expr("return 'hello'[1:3]").py_eq(&Value::str("el")));
        assert!(run_expr("return 'hello'[-1]").py_eq(&Value::str("o")));
        assert!(run_expr("return 'hello'[:2]").py_eq(&Value::str("he")));
        assert!(run_expr("return 'hello'[10:20]").py_eq(&Value::str("")));
    }

    #[test]
    fn for_loop_over_string() {
        let v = run_expr("total = 0\nfor c in '123':\n    total += int(c)\nreturn total");
        assert!(v.py_eq(&Value::Int(6)));
    }

    #[test]
    fn dict_operations() {
        let v = run_expr("d = {'a': 1}\nd['b'] = 2\nreturn d['a'] + d['b']");
        assert!(v.py_eq(&Value::Int(3)));
        let v = run_expr("d = {'a': 1}\nif 'a' in d:\n    return True\nreturn False");
        assert!(v.py_eq(&Value::Bool(true)));
    }

    #[test]
    fn in_operator_on_strings_and_lists() {
        assert!(run_expr("return 'ell' in 'hello'").py_eq(&Value::Bool(true)));
        assert!(run_expr("return 5 in [1, 2, 5]").py_eq(&Value::Bool(true)));
        assert!(run_expr("return 'x' not in 'abc'").py_eq(&Value::Bool(true)));
    }

    #[test]
    fn script_with_sys_argv() {
        let src = "import sys\nresult = sys.argv[0]\n";
        let mut program = Program::new();
        program.add_file("script", src).unwrap();
        let io = Io {
            argv: vec!["127.0.0.1".to_string()],
            ..Io::default()
        };
        let mut interp = Interp::with_options(&program, io, DEFAULT_FUEL);
        let globals = interp.run_script(0).unwrap();
        let result = globals.borrow().attrs.get("result").cloned().unwrap();
        assert!(result.py_eq(&Value::str("127.0.0.1")));
    }

    #[test]
    fn boolop_returns_operand_like_python() {
        assert!(run_expr("return 0 or 'fallback'").py_eq(&Value::str("fallback")));
        assert!(run_expr("return 'a' and 'b'").py_eq(&Value::str("b")));
    }

    #[test]
    fn definitions_and_string_constants_share_the_parsed_ast() {
        let src = "GREETING = 'hello'\n\ndef f(s):\n    return s\n\nclass C:\n    def m(self):\n        return 1\n";
        let mut program = Program::new();
        program.add_file("m", src).unwrap();
        let body = &program.file(0).module.body;
        let Stmt::Assign {
            value: Expr::Str(literal),
            ..
        } = &body[0]
        else {
            panic!()
        };
        let Stmt::FuncDef(def) = &body[1] else {
            panic!()
        };
        let Stmt::ClassDef(class) = &body[2] else {
            panic!()
        };
        // Every run re-executes module init; each one binds the same nodes.
        for _ in 0..2 {
            let mut interp = Interp::new(&program);
            let Value::Str(s) = interp.get_global(0, "GREETING").unwrap() else {
                panic!()
            };
            assert!(Arc::ptr_eq(&s, literal));
            let Value::Func(f, _) = interp.get_global(0, "f").unwrap() else {
                panic!()
            };
            assert!(Arc::ptr_eq(&f, def));
            let c = interp.get_global(0, "C").unwrap();
            let Value::Class(class_obj) = &c else {
                panic!()
            };
            assert!(Arc::ptr_eq(&class_obj.methods["m"], &class.methods[0]));
            let obj = interp.call(c, vec![]).unwrap();
            let Value::Bound(_, m, _) = interp.get_attr(obj, "m", 0).unwrap() else {
                panic!()
            };
            assert!(Arc::ptr_eq(&m, &class.methods[0]));
        }
    }

    #[test]
    fn while_condition_branch_traced_each_iteration() {
        let src = "def f(s):\n    i = 0\n    while i < 2:\n        i += 1\n    return i\n";
        let mut program = Program::new();
        program.add_file("m", src).unwrap();
        let mut interp = Interp::new(&program);
        interp.call_function(0, "f", vec![Value::str("x")]).unwrap();
        let branches: Vec<bool> = interp
            .trace_events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Branch { site, taken } if site.line == 3 => Some(*taken),
                _ => None,
            })
            .collect();
        assert_eq!(branches, vec![true, true, false]);
    }
}
