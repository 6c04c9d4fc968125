//! Recursive-descent parser for PyLite.
//!
//! Grammar summary (statements are newline-terminated; blocks are
//! `Indent ... Dedent`):
//!
//! ```text
//! stmt      := simple NEWLINE | compound
//! simple    := expr | target (= | += | -= | *= | //= | %=) expr
//!            | return [expr] | raise NAME ['(' expr ')'] | pass | break
//!            | continue | import NAME
//! compound  := if | while | for | def | class | try
//! expr      := or_expr
//! or_expr   := and_expr ('or' and_expr)*
//! and_expr  := not_expr ('and' not_expr)*
//! not_expr  := 'not' not_expr | comparison
//! comparison:= arith ((== != < <= > >= in 'not in') arith)?
//! arith     := term (('+'|'-') term)*
//! term      := power (('*'|'/'|'//'|'%') power)*
//! power     := unary ('**' unary)?
//! unary     := '-' unary | postfix
//! postfix   := atom ( '(' args ')' | '.' NAME | '[' subscript ']' )*
//! atom      := literal | NAME | '(' expr ')' | list | dict
//! ```

use std::sync::Arc;

use crate::ast::*;
use crate::token::{Tok, Token};

/// A parse error with the offending 1-based line.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    pub line: u32,
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parse a token stream (from [`crate::lexer::lex`]) into a [`Module`].
pub fn parse(tokens: Vec<Token>) -> Result<Module, ParseError> {
    let mut parser = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let body = parser.parse_block_until_eof()?;
    Ok(Module { body })
}

/// Convenience: lex and parse in one step.
pub fn parse_source(source: &str) -> Result<Module, ParseError> {
    let tokens = crate::lexer::lex(source).map_err(|e| ParseError {
        line: e.line,
        message: e.message,
    })?;
    parse(tokens)
}

/// Maximum expression-nesting depth: recursive descent must not let
/// pathological mined code overflow the host stack.
const MAX_EXPR_DEPTH: usize = 120;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.tokens[self.pos.min(self.tokens.len() - 1)].tok
    }

    fn peek_line(&self) -> u32 {
        self.tokens[self.pos.min(self.tokens.len() - 1)].line
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)].clone();
        if self.pos < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, tok: &Tok) -> bool {
        if self.peek() == tok {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: Tok) -> Result<Token, ParseError> {
        if self.peek() == &tok {
            Ok(self.bump())
        } else {
            Err(self.error(&format!("expected {tok}, found {}", self.peek())))
        }
    }

    fn expect_ident(&mut self) -> Result<(String, u32), ParseError> {
        let line = self.peek_line();
        match self.bump().tok {
            Tok::Ident(name) => Ok((name, line)),
            other => Err(ParseError {
                line,
                message: format!("expected identifier, found {other}"),
            }),
        }
    }

    fn error(&self, message: &str) -> ParseError {
        ParseError {
            line: self.peek_line(),
            message: message.to_string(),
        }
    }

    fn parse_block_until_eof(&mut self) -> Result<Vec<Stmt>, ParseError> {
        let mut body = Vec::new();
        while self.peek() != &Tok::Eof {
            body.push(self.parse_stmt()?);
        }
        Ok(body)
    }

    /// Parse an indented block after a `:` header.
    fn parse_block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.expect(Tok::Colon)?;
        self.expect(Tok::Newline)?;
        self.expect(Tok::Indent)?;
        let mut body = Vec::new();
        while self.peek() != &Tok::Dedent && self.peek() != &Tok::Eof {
            body.push(self.parse_stmt()?);
        }
        self.expect(Tok::Dedent)?;
        if body.is_empty() {
            return Err(self.error("empty block"));
        }
        Ok(body)
    }

    fn parse_stmt(&mut self) -> Result<Stmt, ParseError> {
        let line = self.peek_line();
        match self.peek() {
            Tok::Def => {
                let func = self.parse_funcdef()?;
                let res = Resolution::of(&func.name);
                Ok(Stmt::FuncDef(Arc::new(func), res))
            }
            Tok::Class => self.parse_classdef(),
            Tok::If => self.parse_if(),
            Tok::While => {
                self.bump();
                let cond = self.parse_expr()?;
                let body = self.parse_block()?;
                Ok(Stmt::While { cond, body, line })
            }
            Tok::For => {
                self.bump();
                let var = Name::new(self.expect_ident()?.0);
                self.expect(Tok::In)?;
                let iter = self.parse_expr()?;
                let body = self.parse_block()?;
                Ok(Stmt::For {
                    var,
                    iter,
                    body,
                    line,
                })
            }
            Tok::Try => self.parse_try(),
            Tok::Return => {
                self.bump();
                let value = if self.peek() == &Tok::Newline {
                    None
                } else {
                    Some(self.parse_expr()?)
                };
                self.expect(Tok::Newline)?;
                Ok(Stmt::Return { value, line })
            }
            Tok::Raise => {
                self.bump();
                let (kind, _) = self.expect_ident()?;
                let message = if self.eat(&Tok::LParen) {
                    if self.eat(&Tok::RParen) {
                        None
                    } else {
                        let m = self.parse_expr()?;
                        self.expect(Tok::RParen)?;
                        Some(m)
                    }
                } else {
                    None
                };
                self.expect(Tok::Newline)?;
                Ok(Stmt::Raise {
                    kind,
                    message,
                    line,
                })
            }
            Tok::Pass => {
                self.bump();
                self.expect(Tok::Newline)?;
                Ok(Stmt::Pass)
            }
            Tok::Break => {
                self.bump();
                self.expect(Tok::Newline)?;
                Ok(Stmt::Break(line))
            }
            Tok::Continue => {
                self.bump();
                self.expect(Tok::Newline)?;
                Ok(Stmt::Continue(line))
            }
            Tok::Import => {
                self.bump();
                let module = Name::new(self.expect_ident()?.0);
                self.expect(Tok::Newline)?;
                Ok(Stmt::Import { module, line })
            }
            _ => self.parse_expr_or_assign(line),
        }
    }

    /// Parse a `def` and resolve its locals to frame slots, so the
    /// definition is complete before it is shared behind an `Arc`.
    fn parse_funcdef(&mut self) -> Result<FuncDef, ParseError> {
        let line = self.peek_line();
        self.expect(Tok::Def)?;
        let (name, _) = self.expect_ident()?;
        self.expect(Tok::LParen)?;
        let mut params = Vec::new();
        if self.peek() != &Tok::RParen {
            loop {
                let (p, _) = self.expect_ident()?;
                params.push(p);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(Tok::RParen)?;
        let body = self.parse_block()?;
        let mut func = FuncDef {
            name,
            params,
            body,
            line,
            locals: Vec::new(),
            param_slots: Vec::new(),
        };
        crate::resolve::resolve_function(&mut func);
        Ok(func)
    }

    fn parse_classdef(&mut self) -> Result<Stmt, ParseError> {
        let line = self.peek_line();
        self.expect(Tok::Class)?;
        let (name, _) = self.expect_ident()?;
        // Optional empty parent list `class C:` / `class C():`.
        if self.eat(&Tok::LParen) {
            // Accept and ignore a single base-class name (common in mined
            // code, e.g. `class Foo(object):`).
            if let Tok::Ident(_) = self.peek() {
                self.bump();
            }
            self.expect(Tok::RParen)?;
        }
        self.expect(Tok::Colon)?;
        self.expect(Tok::Newline)?;
        self.expect(Tok::Indent)?;
        let mut methods = Vec::new();
        while self.peek() != &Tok::Dedent && self.peek() != &Tok::Eof {
            match self.peek() {
                Tok::Def => methods.push(Arc::new(self.parse_funcdef()?)),
                Tok::Pass => {
                    self.bump();
                    self.expect(Tok::Newline)?;
                }
                _ => return Err(self.error("only method definitions allowed in class body")),
            }
        }
        self.expect(Tok::Dedent)?;
        let res = Resolution::of(&name);
        Ok(Stmt::ClassDef(
            ClassDef {
                name,
                methods,
                line,
            },
            res,
        ))
    }

    fn parse_if(&mut self) -> Result<Stmt, ParseError> {
        let line = self.peek_line();
        // `if` or `elif` keyword already at peek.
        self.bump();
        let cond = self.parse_expr()?;
        let then_body = self.parse_block()?;
        let else_body = match self.peek() {
            Tok::Elif => vec![self.parse_if()?],
            Tok::Else => {
                self.bump();
                self.parse_block()?
            }
            _ => Vec::new(),
        };
        Ok(Stmt::If {
            cond,
            then_body,
            else_body,
            line,
        })
    }

    fn parse_try(&mut self) -> Result<Stmt, ParseError> {
        let line = self.peek_line();
        self.expect(Tok::Try)?;
        let body = self.parse_block()?;
        let mut handlers = Vec::new();
        while self.peek() == &Tok::Except {
            let hline = self.peek_line();
            self.bump();
            let kind = if let Tok::Ident(_) = self.peek() {
                let (k, _) = self.expect_ident()?;
                Some(k)
            } else {
                None
            };
            let bind = if self.eat(&Tok::As) {
                Some(Name::new(self.expect_ident()?.0))
            } else {
                None
            };
            let hbody = self.parse_block()?;
            handlers.push(ExceptHandler {
                kind,
                bind,
                body: hbody,
                line: hline,
            });
        }
        if handlers.is_empty() {
            return Err(self.error("try statement requires at least one except clause"));
        }
        Ok(Stmt::Try {
            body,
            handlers,
            line,
        })
    }

    fn parse_expr_or_assign(&mut self, line: u32) -> Result<Stmt, ParseError> {
        let expr = self.parse_expr()?;
        let aug = match self.peek() {
            Tok::PlusEq => Some(BinOp::Add),
            Tok::MinusEq => Some(BinOp::Sub),
            Tok::StarEq => Some(BinOp::Mul),
            Tok::SlashSlashEq => Some(BinOp::FloorDiv),
            Tok::PercentEq => Some(BinOp::Mod),
            _ => None,
        };
        if let Some(op) = aug {
            self.bump();
            let target = Self::expr_to_target(expr).map_err(|m| ParseError { line, message: m })?;
            let value = self.parse_expr()?;
            self.expect(Tok::Newline)?;
            return Ok(Stmt::AugAssign {
                target,
                op,
                value,
                line,
            });
        }
        if self.eat(&Tok::Eq) {
            let target = Self::expr_to_target(expr).map_err(|m| ParseError { line, message: m })?;
            let value = self.parse_expr()?;
            self.expect(Tok::Newline)?;
            return Ok(Stmt::Assign {
                target,
                value,
                line,
            });
        }
        self.expect(Tok::Newline)?;
        Ok(Stmt::Expr(expr))
    }

    fn expr_to_target(expr: Expr) -> Result<Target, String> {
        match expr {
            Expr::Name(name) => Ok(Target::Name(name)),
            Expr::Attr { object, name, .. } => Ok(Target::Attr {
                object: *object,
                name,
            }),
            Expr::Index { object, index, .. } => Ok(Target::Index {
                object: *object,
                index: *index,
            }),
            _ => Err("invalid assignment target".to_string()),
        }
    }

    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        self.depth += 1;
        if self.depth > MAX_EXPR_DEPTH {
            self.depth -= 1;
            return Err(self.error("expression nesting too deep"));
        }
        let result = self.parse_or();
        self.depth -= 1;
        result
    }

    fn parse_or(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_and()?;
        while self.peek() == &Tok::Or {
            self.bump();
            let right = self.parse_and()?;
            left = Expr::BoolOp {
                is_and: false,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_not()?;
        while self.peek() == &Tok::And {
            self.bump();
            let right = self.parse_not()?;
            left = Expr::BoolOp {
                is_and: true,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> Result<Expr, ParseError> {
        if self.eat(&Tok::Not) {
            let inner = self.parse_not()?;
            return Ok(Expr::Not(Box::new(inner)));
        }
        self.parse_comparison()
    }

    fn parse_comparison(&mut self) -> Result<Expr, ParseError> {
        let left = self.parse_arith()?;
        let line = self.peek_line();
        let op = match self.peek() {
            Tok::EqEq => Some(CmpOp::Eq),
            Tok::NotEq => Some(CmpOp::NotEq),
            Tok::Lt => Some(CmpOp::Lt),
            Tok::LtEq => Some(CmpOp::LtEq),
            Tok::Gt => Some(CmpOp::Gt),
            Tok::GtEq => Some(CmpOp::GtEq),
            Tok::In => Some(CmpOp::In),
            Tok::Not => {
                // `not in`
                if self.tokens.get(self.pos + 1).map(|t| &t.tok) == Some(&Tok::In) {
                    self.bump();
                    Some(CmpOp::NotIn)
                } else {
                    None
                }
            }
            _ => None,
        };
        match op {
            None => Ok(left),
            Some(op) => {
                self.bump();
                let right = self.parse_arith()?;
                Ok(Expr::Cmp {
                    op,
                    left: Box::new(left),
                    right: Box::new(right),
                    line,
                })
            }
        }
    }

    fn parse_arith(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_term()?;
        loop {
            let line = self.peek_line();
            let op = match self.peek() {
                Tok::Plus => BinOp::Add,
                Tok::Minus => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let right = self.parse_term()?;
            left = Expr::Bin {
                op,
                left: Box::new(left),
                right: Box::new(right),
                line,
            };
        }
        Ok(left)
    }

    fn parse_term(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_power()?;
        loop {
            let line = self.peek_line();
            let op = match self.peek() {
                Tok::Star => BinOp::Mul,
                Tok::Slash => BinOp::Div,
                Tok::SlashSlash => BinOp::FloorDiv,
                Tok::Percent => BinOp::Mod,
                _ => break,
            };
            self.bump();
            let right = self.parse_power()?;
            left = Expr::Bin {
                op,
                left: Box::new(left),
                right: Box::new(right),
                line,
            };
        }
        Ok(left)
    }

    fn parse_power(&mut self) -> Result<Expr, ParseError> {
        let base = self.parse_unary()?;
        if self.peek() == &Tok::StarStar {
            let line = self.peek_line();
            self.bump();
            let exp = self.parse_unary()?;
            return Ok(Expr::Bin {
                op: BinOp::Pow,
                left: Box::new(base),
                right: Box::new(exp),
                line,
            });
        }
        Ok(base)
    }

    fn parse_unary(&mut self) -> Result<Expr, ParseError> {
        if self.peek() == &Tok::Minus {
            let line = self.peek_line();
            self.bump();
            let inner = self.parse_unary()?;
            return Ok(Expr::Neg(Box::new(inner), line));
        }
        self.parse_postfix()
    }

    fn parse_postfix(&mut self) -> Result<Expr, ParseError> {
        let mut expr = self.parse_atom()?;
        loop {
            let line = self.peek_line();
            match self.peek() {
                Tok::LParen => {
                    self.bump();
                    let mut args = Vec::new();
                    if self.peek() != &Tok::RParen {
                        loop {
                            args.push(self.parse_expr()?);
                            if !self.eat(&Tok::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(Tok::RParen)?;
                    expr = Expr::Call {
                        callee: Box::new(expr),
                        args,
                        line,
                    };
                }
                Tok::Dot => {
                    self.bump();
                    let (name, _) = self.expect_ident()?;
                    expr = Expr::Attr {
                        object: Box::new(expr),
                        name,
                        line,
                    };
                }
                Tok::LBracket => {
                    self.bump();
                    // Either `[expr]`, `[expr:expr]`, `[:expr]`, `[expr:]`, `[:]`.
                    let low = if self.peek() == &Tok::Colon {
                        None
                    } else {
                        Some(Box::new(self.parse_expr()?))
                    };
                    if self.eat(&Tok::Colon) {
                        let high = if self.peek() == &Tok::RBracket {
                            None
                        } else {
                            Some(Box::new(self.parse_expr()?))
                        };
                        self.expect(Tok::RBracket)?;
                        expr = Expr::Slice {
                            object: Box::new(expr),
                            low,
                            high,
                            line,
                        };
                    } else {
                        self.expect(Tok::RBracket)?;
                        expr = Expr::Index {
                            object: Box::new(expr),
                            index: low.ok_or_else(|| self.error("empty subscript"))?,
                            line,
                        };
                    }
                }
                _ => break,
            }
        }
        Ok(expr)
    }

    fn parse_atom(&mut self) -> Result<Expr, ParseError> {
        let line = self.peek_line();
        match self.bump().tok {
            Tok::Int(v) => Ok(Expr::Int(v)),
            Tok::Float(v) => Ok(Expr::Float(v)),
            Tok::Str(s) => Ok(Expr::Str(s.into())),
            Tok::True => Ok(Expr::Bool(true)),
            Tok::False => Ok(Expr::Bool(false)),
            Tok::None => Ok(Expr::None),
            Tok::Ident(name) => Ok(Expr::Name(Name::new(name))),
            Tok::LParen => {
                let inner = self.parse_expr()?;
                self.expect(Tok::RParen)?;
                Ok(inner)
            }
            Tok::LBracket => {
                let mut items = Vec::new();
                if self.peek() != &Tok::RBracket {
                    loop {
                        items.push(self.parse_expr()?);
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                        if self.peek() == &Tok::RBracket {
                            break; // trailing comma
                        }
                    }
                }
                self.expect(Tok::RBracket)?;
                Ok(Expr::List(items))
            }
            Tok::LBrace => {
                let mut items = Vec::new();
                if self.peek() != &Tok::RBrace {
                    loop {
                        let key = self.parse_expr()?;
                        self.expect(Tok::Colon)?;
                        let value = self.parse_expr()?;
                        items.push((key, value));
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                        if self.peek() == &Tok::RBrace {
                            break;
                        }
                    }
                }
                self.expect(Tok::RBrace)?;
                Ok(Expr::Dict(items))
            }
            other => Err(ParseError {
                line,
                message: format!("unexpected token {other} in expression"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(src: &str) -> Module {
        parse_source(src).unwrap()
    }

    #[test]
    fn parses_function_def() {
        let m = parse_ok("def add(a, b):\n    return a + b\n");
        let f = m.functions().next().unwrap();
        assert_eq!(f.name, "add");
        assert_eq!(f.params, vec!["a", "b"]);
        assert_eq!(f.body.len(), 1);
    }

    #[test]
    fn parses_if_elif_else_chain() {
        let m = parse_ok("if a:\n    x = 1\nelif b:\n    x = 2\nelse:\n    x = 3\n");
        match &m.body[0] {
            Stmt::If { else_body, .. } => {
                assert_eq!(else_body.len(), 1);
                assert!(matches!(else_body[0], Stmt::If { .. }));
            }
            other => panic!("expected If, got {other:?}"),
        }
    }

    #[test]
    fn elif_has_its_own_line() {
        let m = parse_ok("if a:\n    x = 1\nelif b:\n    x = 2\n");
        let Stmt::If {
            line, else_body, ..
        } = &m.body[0]
        else {
            panic!()
        };
        assert_eq!(*line, 1);
        let Stmt::If {
            line: elif_line, ..
        } = &else_body[0]
        else {
            panic!()
        };
        assert_eq!(*elif_line, 3);
    }

    #[test]
    fn parses_class_with_methods() {
        let m = parse_ok(
            "class CreditCard:\n    def __init__(self, s):\n        self.num = s\n    def brand(self):\n        return self.num\n",
        );
        let c = m.classes().next().unwrap();
        assert_eq!(c.name, "CreditCard");
        assert_eq!(c.methods.len(), 2);
        assert_eq!(c.methods[0].name, "__init__");
    }

    #[test]
    fn parses_try_except() {
        let m = parse_ok(
            "try:\n    x = int(s)\nexcept ValueError as e:\n    x = 0\nexcept:\n    x = 1\n",
        );
        let Stmt::Try { handlers, .. } = &m.body[0] else {
            panic!()
        };
        assert_eq!(handlers.len(), 2);
        assert_eq!(handlers[0].kind.as_deref(), Some("ValueError"));
        assert_eq!(handlers[0].bind.as_ref().map(|b| b.id.as_str()), Some("e"));
        assert_eq!(handlers[1].kind, None);
    }

    #[test]
    fn parses_slices_and_indexing() {
        let m = parse_ok("a = s[0]\nb = s[1:4]\nc = s[:3]\nd = s[2:]\ne = s[:]\n");
        assert!(matches!(
            &m.body[0],
            Stmt::Assign {
                value: Expr::Index { .. },
                ..
            }
        ));
        for stmt in &m.body[1..] {
            assert!(matches!(
                stmt,
                Stmt::Assign {
                    value: Expr::Slice { .. },
                    ..
                }
            ));
        }
    }

    #[test]
    fn parses_attribute_assignment() {
        let m = parse_ok("self.card = s\n");
        assert!(matches!(
            &m.body[0],
            Stmt::Assign {
                target: Target::Attr { .. },
                ..
            }
        ));
    }

    #[test]
    fn parses_aug_assign() {
        let m = parse_ok("total += d * 2\n");
        assert!(matches!(&m.body[0], Stmt::AugAssign { op: BinOp::Add, .. }));
    }

    #[test]
    fn parses_not_in() {
        let m = parse_ok("if c not in digits:\n    pass\n");
        let Stmt::If { cond, .. } = &m.body[0] else {
            panic!()
        };
        assert!(matches!(
            cond,
            Expr::Cmp {
                op: CmpOp::NotIn,
                ..
            }
        ));
    }

    #[test]
    fn operator_precedence_mul_over_add() {
        let m = parse_ok("x = 1 + 2 * 3\n");
        let Stmt::Assign { value, .. } = &m.body[0] else {
            panic!()
        };
        let Expr::Bin { op, right, .. } = value else {
            panic!()
        };
        assert_eq!(*op, BinOp::Add);
        assert!(matches!(**right, Expr::Bin { op: BinOp::Mul, .. }));
    }

    #[test]
    fn boolop_precedence_and_over_or() {
        let m = parse_ok("x = a or b and c\n");
        let Stmt::Assign { value, .. } = &m.body[0] else {
            panic!()
        };
        let Expr::BoolOp { is_and, right, .. } = value else {
            panic!()
        };
        assert!(!is_and);
        assert!(matches!(**right, Expr::BoolOp { is_and: true, .. }));
    }

    #[test]
    fn script_body_detection() {
        let m = parse_ok("def f():\n    return 1\n");
        assert!(!m.has_script_body());
        let m = parse_ok("x = '4111111111111111'\nfor c in x:\n    pass\n");
        assert!(m.has_script_body());
    }

    #[test]
    fn parses_imports() {
        let m = parse_ok("import sys\nimport checksum\n");
        assert_eq!(m.all_imports(), vec!["sys", "checksum"]);
    }

    #[test]
    fn parses_dict_and_list_literals() {
        let m = parse_ok("d = {'a': 1, 'b': 2}\nl = [1, 2, 3]\n");
        assert!(matches!(
            &m.body[0],
            Stmt::Assign {
                value: Expr::Dict(items),
                ..
            } if items.len() == 2
        ));
        assert!(matches!(
            &m.body[1],
            Stmt::Assign {
                value: Expr::List(items),
                ..
            } if items.len() == 3
        ));
    }

    #[test]
    fn rejects_bad_assignment_target() {
        assert!(parse_source("1 + 2 = x\n").is_err());
    }

    #[test]
    fn rejects_empty_block() {
        assert!(parse_source("if a:\nx = 2\n").is_err());
    }

    #[test]
    fn parses_class_with_object_base() {
        let m = parse_ok("class Foo(object):\n    def bar(self):\n        return 1\n");
        assert_eq!(m.classes().next().unwrap().name, "Foo");
    }
}
