//! Name resolution: binds every name a function binds to a slot of that
//! function's frame, once, as the function finishes parsing.
//!
//! A function's slots are its parameters, in order, then every name its
//! body binds: assignment and augmented-assignment targets, `for`
//! variables, `except … as` names, and nested `def`, `class` and `import`
//! statements. Every occurrence of such a name in the body — read or
//! write, before or after the binding statement — resolves to its slot.
//!
//! A nested function is its own scope and is resolved when it is parsed,
//! before its enclosing function; the enclosing pass binds only the nested
//! function's name. PyLite has no closures, so a nested function's free
//! names stay module globals, and every name outside a function keeps the
//! resolution the parser gave it by spelling ([`Resolution::of`]).

use crate::ast::*;

/// Resolve `func`'s locals to frame slots and fill in its frame layout.
pub(crate) fn resolve_function(func: &mut FuncDef) {
    let mut scope = Scope::default();
    func.param_slots = func.params.iter().map(|p| scope.bind(p)).collect();
    collect(&func.body, &mut scope);
    for stmt in &mut func.body {
        resolve_stmt(stmt, &scope);
    }
    func.locals = scope.names;
}

/// The names of one function scope, in slot order.
#[derive(Default)]
struct Scope {
    names: Vec<String>,
}

impl Scope {
    fn slot(&self, id: &str) -> Option<u32> {
        self.names.iter().position(|n| n == id).map(|i| i as u32)
    }

    fn bind(&mut self, id: &str) -> u32 {
        self.slot(id).unwrap_or_else(|| {
            self.names.push(id.to_string());
            (self.names.len() - 1) as u32
        })
    }

    fn resolve(&self, id: &str, res: &mut Resolution) {
        if let Some(slot) = self.slot(id) {
            *res = Resolution::Local(slot);
        }
    }
}

/// First pass: every name the body binds gets a slot, so a read that
/// textually precedes its binding (a loop body) still resolves locally.
fn collect(body: &[Stmt], scope: &mut Scope) {
    for stmt in body {
        match stmt {
            Stmt::Assign {
                target: Target::Name(n),
                ..
            }
            | Stmt::AugAssign {
                target: Target::Name(n),
                ..
            }
            | Stmt::Import { module: n, .. } => {
                scope.bind(&n.id);
            }
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                collect(then_body, scope);
                collect(else_body, scope);
            }
            Stmt::While { body, .. } => collect(body, scope),
            Stmt::For { var, body, .. } => {
                scope.bind(&var.id);
                collect(body, scope);
            }
            Stmt::Try { body, handlers, .. } => {
                collect(body, scope);
                for h in handlers {
                    if let Some(b) = &h.bind {
                        scope.bind(&b.id);
                    }
                    collect(&h.body, scope);
                }
            }
            Stmt::FuncDef(f, _) => {
                scope.bind(&f.name);
            }
            Stmt::ClassDef(c, _) => {
                scope.bind(&c.name);
            }
            _ => {}
        }
    }
}

fn resolve_block(body: &mut [Stmt], scope: &Scope) {
    for stmt in body {
        resolve_stmt(stmt, scope);
    }
}

/// Second pass: rewrite the resolution of every occurrence of a local.
fn resolve_stmt(stmt: &mut Stmt, scope: &Scope) {
    match stmt {
        Stmt::Expr(e) => resolve_expr(e, scope),
        Stmt::Assign { target, value, .. } | Stmt::AugAssign { target, value, .. } => {
            match target {
                Target::Name(n) => scope.resolve(&n.id, &mut n.res),
                Target::Attr { object, .. } => resolve_expr(object, scope),
                Target::Index { object, index } => {
                    resolve_expr(object, scope);
                    resolve_expr(index, scope);
                }
            }
            resolve_expr(value, scope);
        }
        Stmt::If {
            cond,
            then_body,
            else_body,
            ..
        } => {
            resolve_expr(cond, scope);
            resolve_block(then_body, scope);
            resolve_block(else_body, scope);
        }
        Stmt::While { cond, body, .. } => {
            resolve_expr(cond, scope);
            resolve_block(body, scope);
        }
        Stmt::For {
            var, iter, body, ..
        } => {
            scope.resolve(&var.id, &mut var.res);
            resolve_expr(iter, scope);
            resolve_block(body, scope);
        }
        Stmt::Return { value: e, .. } | Stmt::Raise { message: e, .. } => {
            if let Some(e) = e {
                resolve_expr(e, scope);
            }
        }
        Stmt::Try { body, handlers, .. } => {
            resolve_block(body, scope);
            for h in handlers {
                if let Some(b) = &mut h.bind {
                    scope.resolve(&b.id, &mut b.res);
                }
                resolve_block(&mut h.body, scope);
            }
        }
        Stmt::FuncDef(f, res) => scope.resolve(&f.name, res),
        Stmt::ClassDef(c, res) => scope.resolve(&c.name, res),
        Stmt::Import { module, .. } => scope.resolve(&module.id, &mut module.res),
        Stmt::Pass | Stmt::Break(_) | Stmt::Continue(_) => {}
    }
}

fn resolve_expr(expr: &mut Expr, scope: &Scope) {
    match expr {
        Expr::Name(n) => scope.resolve(&n.id, &mut n.res),
        Expr::List(items) => items.iter_mut().for_each(|e| resolve_expr(e, scope)),
        Expr::Dict(items) => {
            for (k, v) in items {
                resolve_expr(k, scope);
                resolve_expr(v, scope);
            }
        }
        Expr::Bin { left, right, .. }
        | Expr::Cmp { left, right, .. }
        | Expr::BoolOp { left, right, .. }
        | Expr::Index {
            object: left,
            index: right,
            ..
        } => {
            resolve_expr(left, scope);
            resolve_expr(right, scope);
        }
        Expr::Not(inner) | Expr::Neg(inner, _) | Expr::Attr { object: inner, .. } => {
            resolve_expr(inner, scope)
        }
        Expr::Call { callee, args, .. } => {
            resolve_expr(callee, scope);
            args.iter_mut().for_each(|e| resolve_expr(e, scope));
        }
        Expr::Slice {
            object, low, high, ..
        } => {
            resolve_expr(object, scope);
            for e in [low, high].into_iter().flatten() {
                resolve_expr(e, scope);
            }
        }
        Expr::None | Expr::Bool(_) | Expr::Int(_) | Expr::Float(_) | Expr::Str(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use crate::ast::*;
    use crate::parse_source;

    fn function(src: &str) -> FuncDef {
        parse_source(src)
            .unwrap()
            .functions()
            .next()
            .unwrap()
            .clone()
    }

    fn returned_name(f: &FuncDef) -> &Name {
        match f.body.last() {
            Some(Stmt::Return {
                value: Some(Expr::Name(n)),
                ..
            }) => n,
            other => panic!("expected `return <name>`, got {other:?}"),
        }
    }

    #[test]
    fn parameters_come_first_then_bindings_in_order() {
        let f = function(
            "def f(a, b):\n    for c in a:\n        d = c\n    try:\n        pass\n    except E as e:\n        import m\n    def g(x):\n        y = x\n    class K:\n        pass\n    return d\n",
        );
        assert_eq!(f.locals, ["a", "b", "c", "d", "e", "m", "g", "K"]);
        assert_eq!(f.param_slots, [0, 1]);
        assert_eq!(returned_name(&f).res, Resolution::Local(3));
    }

    #[test]
    fn a_read_before_its_binding_is_local() {
        let f = function("def f(s):\n    while s:\n        s = x\n        x = 1\n    return x\n");
        assert_eq!(returned_name(&f).res, Resolution::Local(1));
    }

    #[test]
    fn free_names_are_globals_or_builtins() {
        let f = function("def f(s):\n    return g\n");
        assert_eq!(returned_name(&f).res, Resolution::Global);
        let f = function("def f(s):\n    return len\n");
        assert_eq!(returned_name(&f).res, Resolution::Builtin(0));
        let f = function("def f(s):\n    len = 3\n    return len\n");
        assert_eq!(returned_name(&f).res, Resolution::Local(1));
    }

    #[test]
    fn nested_functions_are_their_own_scope() {
        let f = function("def f(s):\n    t = 1\n    def g(u):\n        return t\n    return g\n");
        assert_eq!(f.locals, ["s", "t", "g"]);
        let Stmt::FuncDef(g, res) = &f.body[1] else {
            panic!()
        };
        assert_eq!(*res, Resolution::Local(2));
        assert_eq!(g.locals, ["u"]);
        assert_eq!(returned_name(g).res, Resolution::Global);
    }

    #[test]
    fn repeated_parameters_share_a_slot() {
        let f = function("def f(a, a):\n    return a\n");
        assert_eq!(f.locals, ["a"]);
        assert_eq!(f.param_slots, [0, 0]);
    }

    #[test]
    fn module_level_names_stay_unresolved_to_slots() {
        let m = parse_source("x = 1\nfor c in 'ab':\n    len = c\n").unwrap();
        let Stmt::Assign {
            target: Target::Name(x),
            ..
        } = &m.body[0]
        else {
            panic!()
        };
        assert_eq!(x.res, Resolution::Global);
        let Stmt::For { var, body, .. } = &m.body[1] else {
            panic!()
        };
        assert_eq!(var.res, Resolution::Global);
        let Stmt::Assign {
            target: Target::Name(len),
            ..
        } = &body[0]
        else {
            panic!()
        };
        assert_eq!(len.res, Resolution::Builtin(0));
    }
}
