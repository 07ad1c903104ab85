//! Recursive-descent parser for mini-C.

use crate::ast::*;
use crate::error::{FrontendError, Result};
use crate::lexer::lex;
use crate::span::Span;
use crate::token::{Token, TokenKind};
use crate::types::Type;

/// Parses a full translation unit from source text.
///
/// # Errors
///
/// Returns the first lexical or syntactic error encountered.
///
/// ```
/// let prog = kremlin_minic::parser::parse("int main() { return 0; }")?;
/// assert_eq!(prog.funcs.len(), 1);
/// # Ok::<(), kremlin_minic::error::FrontendError>(())
/// ```
pub fn parse(src: &str) -> Result<Program> {
    let tokens = lex(src)?;
    Parser { tokens, pos: 0 }.program()
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek_at(&self, n: usize) -> &TokenKind {
        let i = (self.pos + n).min(self.tokens.len() - 1);
        &self.tokens[i].kind
    }

    fn span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn prev_span(&self) -> Span {
        self.tokens[self.pos.saturating_sub(1)].span
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<Token> {
        if self.peek() == kind {
            Ok(self.bump())
        } else {
            Err(FrontendError::parse(
                format!("expected {}, found {}", kind.describe(), self.peek().describe()),
                self.span(),
            ))
        }
    }

    fn expect_ident(&mut self) -> Result<(String, Span)> {
        match self.peek().clone() {
            TokenKind::Ident(name) => {
                let t = self.bump();
                Ok((name, t.span))
            }
            other => Err(FrontendError::parse(
                format!("expected identifier, found {}", other.describe()),
                self.span(),
            )),
        }
    }

    // ---- top level -------------------------------------------------------

    fn program(&mut self) -> Result<Program> {
        let mut globals = Vec::new();
        let mut funcs = Vec::new();
        while *self.peek() != TokenKind::Eof {
            let start = self.span();
            let ret = self.parse_base_type()?;
            let (name, _) = self.expect_ident()?;
            if *self.peek() == TokenKind::LParen {
                funcs.push(self.func_rest(ret, name, start)?);
            } else {
                globals.push(self.global_rest(ret, name, start)?);
            }
        }
        Ok(Program { globals, funcs })
    }

    fn parse_base_type(&mut self) -> Result<Type> {
        match self.peek() {
            TokenKind::KwInt => {
                self.bump();
                Ok(Type::INT)
            }
            TokenKind::KwFloat => {
                self.bump();
                Ok(Type::FLOAT)
            }
            TokenKind::KwVoid => {
                self.bump();
                Ok(Type::Void)
            }
            other => Err(FrontendError::parse(
                format!("expected a type, found {}", other.describe()),
                self.span(),
            )),
        }
    }

    /// Parses `[N][M]...` dimension suffixes. `allow_unsized_first` permits
    /// `[]` as the first dimension (parameters only).
    fn parse_dims(&mut self, allow_unsized_first: bool) -> Result<Vec<Option<u32>>> {
        let mut dims = Vec::new();
        while self.eat(&TokenKind::LBracket) {
            if dims.is_empty() && allow_unsized_first && *self.peek() == TokenKind::RBracket {
                self.bump();
                dims.push(None);
                continue;
            }
            match self.peek().clone() {
                TokenKind::Int(n) if n > 0 && n <= u32::MAX as i64 => {
                    self.bump();
                    self.expect(&TokenKind::RBracket)?;
                    dims.push(Some(n as u32));
                }
                other => {
                    return Err(FrontendError::parse(
                        format!(
                            "expected a positive constant array dimension, found {}",
                            other.describe()
                        ),
                        self.span(),
                    ))
                }
            }
        }
        Ok(dims)
    }

    fn apply_dims(base: Type, dims: Vec<Option<u32>>, span: Span) -> Result<Type> {
        if dims.is_empty() {
            return Ok(base);
        }
        // Slot counts are `u32`: an array must fit one.
        let elems = dims.iter().flatten().try_fold(1u32, |n, &d| n.checked_mul(d));
        if elems.is_none() {
            return Err(FrontendError::parse(
                format!("array of more than {} elements", u32::MAX),
                span,
            ));
        }
        match base {
            Type::Scalar(elem) => Ok(Type::Array { elem, dims }),
            _ => Err(FrontendError::parse("array of non-scalar type", span)),
        }
    }

    fn global_rest(&mut self, base: Type, name: String, start: Span) -> Result<GlobalDecl> {
        if base == Type::Void {
            return Err(FrontendError::parse("global of type void", start));
        }
        let dims = self.parse_dims(false)?;
        let ty = Self::apply_dims(base, dims, start)?;
        let init = if self.eat(&TokenKind::Assign) {
            if ty.is_array() {
                return Err(FrontendError::parse("array globals cannot have initializers", start));
            }
            let neg = self.eat(&TokenKind::Minus);
            let v = match self.peek().clone() {
                TokenKind::Int(v) => {
                    self.bump();
                    ConstInit::Int(if neg { -v } else { v })
                }
                TokenKind::Float(v) => {
                    self.bump();
                    ConstInit::Float(if neg { -v } else { v })
                }
                other => {
                    return Err(FrontendError::parse(
                        format!(
                            "global initializer must be a constant, found {}",
                            other.describe()
                        ),
                        self.span(),
                    ))
                }
            };
            Some(v)
        } else {
            None
        };
        self.expect(&TokenKind::Semi)?;
        Ok(GlobalDecl { name, ty, init, span: start.to(self.prev_span()) })
    }

    fn func_rest(&mut self, ret: Type, name: String, start: Span) -> Result<FuncDecl> {
        self.expect(&TokenKind::LParen)?;
        let mut params = Vec::new();
        if !self.eat(&TokenKind::RParen) {
            loop {
                let pstart = self.span();
                let base = self.parse_base_type()?;
                if base == Type::Void {
                    return Err(FrontendError::parse("parameter of type void", pstart));
                }
                let (pname, _) = self.expect_ident()?;
                let dims = self.parse_dims(true)?;
                let ty = Self::apply_dims(base, dims, pstart)?;
                params.push(Param { name: pname, ty, span: pstart.to(self.prev_span()) });
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RParen)?;
        }
        let body = self.block()?;
        Ok(FuncDecl { name, ret, params, span: start.to(self.prev_span()), body })
    }

    // ---- statements ------------------------------------------------------

    fn block(&mut self) -> Result<Block> {
        let start = self.expect(&TokenKind::LBrace)?.span;
        let mut stmts = Vec::new();
        while *self.peek() != TokenKind::RBrace {
            if *self.peek() == TokenKind::Eof {
                return Err(FrontendError::parse("unterminated block", start));
            }
            stmts.push(self.stmt()?);
        }
        let end = self.expect(&TokenKind::RBrace)?.span;
        Ok(Block { stmts, span: start.to(end) })
    }

    fn stmt(&mut self) -> Result<Stmt> {
        match self.peek() {
            TokenKind::KwInt | TokenKind::KwFloat => self.decl_stmt(),
            TokenKind::KwIf => self.if_stmt(),
            TokenKind::KwWhile => self.while_stmt(),
            TokenKind::KwFor => self.for_stmt(),
            TokenKind::KwReturn => {
                let start = self.bump().span;
                let value = if *self.peek() == TokenKind::Semi { None } else { Some(self.expr()?) };
                self.expect(&TokenKind::Semi)?;
                Ok(Stmt::Return { value, span: start.to(self.prev_span()) })
            }
            TokenKind::KwBreak => {
                let s = self.bump().span;
                self.expect(&TokenKind::Semi)?;
                Ok(Stmt::Break(s))
            }
            TokenKind::KwContinue => {
                let s = self.bump().span;
                self.expect(&TokenKind::Semi)?;
                Ok(Stmt::Continue(s))
            }
            TokenKind::LBrace => Ok(Stmt::Block(self.block()?)),
            _ => {
                let s = self.simple_stmt()?;
                self.expect(&TokenKind::Semi)?;
                Ok(s)
            }
        }
    }

    fn decl_stmt(&mut self) -> Result<Stmt> {
        let start = self.span();
        let base = self.parse_base_type()?;
        let (name, _) = self.expect_ident()?;
        let dims = self.parse_dims(false)?;
        let ty = Self::apply_dims(base, dims, start)?;
        let init = if self.eat(&TokenKind::Assign) {
            if ty.is_array() {
                return Err(FrontendError::parse("array locals cannot have initializers", start));
            }
            Some(self.expr()?)
        } else {
            None
        };
        self.expect(&TokenKind::Semi)?;
        Ok(Stmt::Decl { name, ty, init, span: start.to(self.prev_span()) })
    }

    /// An assignment or expression statement without the trailing `;`
    /// (shared by expression statements and `for` init/step clauses).
    fn simple_stmt(&mut self) -> Result<Stmt> {
        let start = self.span();
        // Look ahead: `ident ... (= | op=) ` is an assignment; `ident++` too.
        if let TokenKind::Ident(_) = self.peek() {
            if let Some(stmt) = self.try_assignment(start)? {
                return Ok(stmt);
            }
        }
        let e = self.expr()?;
        match e {
            Expr::Call { .. } => Ok(Stmt::Expr(e)),
            other => Err(FrontendError::parse(
                "only call expressions may be used as statements",
                other.span(),
            )),
        }
    }

    /// Attempts to parse an assignment statement; rewinds and returns `None`
    /// if the lookahead turns out not to be an assignment (e.g. a bare call).
    fn try_assignment(&mut self, start: Span) -> Result<Option<Stmt>> {
        let save = self.pos;
        let (name, nspan) = self.expect_ident()?;
        let mut indices = Vec::new();
        while self.eat(&TokenKind::LBracket) {
            let idx = self.expr()?;
            self.expect(&TokenKind::RBracket)?;
            indices.push(idx);
        }
        let op = match self.peek() {
            TokenKind::Assign => Some(AssignOp::Set),
            TokenKind::PlusAssign => Some(AssignOp::Add),
            TokenKind::MinusAssign => Some(AssignOp::Sub),
            TokenKind::StarAssign => Some(AssignOp::Mul),
            TokenKind::SlashAssign => Some(AssignOp::Div),
            TokenKind::PlusPlus => {
                self.bump();
                let target = LValue { name, indices, span: nspan };
                return Ok(Some(Stmt::Assign {
                    target,
                    op: AssignOp::Add,
                    value: Expr::IntLit(1, self.prev_span()),
                    span: start.to(self.prev_span()),
                }));
            }
            TokenKind::MinusMinus => {
                self.bump();
                let target = LValue { name, indices, span: nspan };
                return Ok(Some(Stmt::Assign {
                    target,
                    op: AssignOp::Sub,
                    value: Expr::IntLit(1, self.prev_span()),
                    span: start.to(self.prev_span()),
                }));
            }
            _ => None,
        };
        match op {
            Some(op) => {
                self.bump();
                let value = self.expr()?;
                let target = LValue { name, indices, span: nspan };
                Ok(Some(Stmt::Assign { target, op, value, span: start.to(self.prev_span()) }))
            }
            None => {
                self.pos = save;
                Ok(None)
            }
        }
    }

    fn if_stmt(&mut self) -> Result<Stmt> {
        let start = self.expect(&TokenKind::KwIf)?.span;
        self.expect(&TokenKind::LParen)?;
        let cond = self.expr()?;
        self.expect(&TokenKind::RParen)?;
        let then_branch = self.stmt_as_block()?;
        let else_branch =
            if self.eat(&TokenKind::KwElse) { Some(self.stmt_as_block()?) } else { None };
        let end = else_branch.as_ref().map(|b| b.span).unwrap_or(then_branch.span);
        Ok(Stmt::If { cond, then_branch, else_branch, span: start.to(end) })
    }

    fn while_stmt(&mut self) -> Result<Stmt> {
        let start = self.expect(&TokenKind::KwWhile)?.span;
        self.expect(&TokenKind::LParen)?;
        let cond = self.expr()?;
        self.expect(&TokenKind::RParen)?;
        let body = self.stmt_as_block()?;
        let end = body.span;
        Ok(Stmt::While { cond, body, span: start.to(end) })
    }

    fn for_stmt(&mut self) -> Result<Stmt> {
        let start = self.expect(&TokenKind::KwFor)?.span;
        self.expect(&TokenKind::LParen)?;
        let init = if *self.peek() == TokenKind::Semi {
            self.bump();
            None
        } else if matches!(self.peek(), TokenKind::KwInt | TokenKind::KwFloat) {
            Some(Box::new(self.decl_stmt()?)) // consumes the `;`
        } else {
            let s = self.simple_stmt()?;
            self.expect(&TokenKind::Semi)?;
            Some(Box::new(s))
        };
        let cond = if *self.peek() == TokenKind::Semi { None } else { Some(self.expr()?) };
        self.expect(&TokenKind::Semi)?;
        let step = if *self.peek() == TokenKind::RParen {
            None
        } else {
            Some(Box::new(self.simple_stmt()?))
        };
        self.expect(&TokenKind::RParen)?;
        let body = self.stmt_as_block()?;
        let end = body.span;
        Ok(Stmt::For { init, cond, step, body, span: start.to(end) })
    }

    /// Parses a statement, wrapping a non-block statement in a synthetic
    /// single-statement block (so loop/branch bodies are always `Block`s).
    fn stmt_as_block(&mut self) -> Result<Block> {
        if *self.peek() == TokenKind::LBrace {
            self.block()
        } else {
            let s = self.stmt()?;
            let span = s.span();
            Ok(Block { stmts: vec![s], span })
        }
    }

    // ---- expressions -----------------------------------------------------

    fn expr(&mut self) -> Result<Expr> {
        self.binary_expr(0)
    }

    /// Precedence-climbing binary expression parser.
    fn binary_expr(&mut self, min_prec: u8) -> Result<Expr> {
        let mut lhs = self.unary_expr()?;
        loop {
            let (op, prec) = match self.peek() {
                TokenKind::OrOr => (BinOp::Or, 1),
                TokenKind::AndAnd => (BinOp::And, 2),
                TokenKind::EqEq => (BinOp::Eq, 3),
                TokenKind::NotEq => (BinOp::Ne, 3),
                TokenKind::Lt => (BinOp::Lt, 4),
                TokenKind::Le => (BinOp::Le, 4),
                TokenKind::Gt => (BinOp::Gt, 4),
                TokenKind::Ge => (BinOp::Ge, 4),
                TokenKind::Plus => (BinOp::Add, 5),
                TokenKind::Minus => (BinOp::Sub, 5),
                TokenKind::Star => (BinOp::Mul, 6),
                TokenKind::Slash => (BinOp::Div, 6),
                TokenKind::Percent => (BinOp::Rem, 6),
                _ => break,
            };
            if prec < min_prec {
                break;
            }
            self.bump();
            let rhs = self.binary_expr(prec + 1)?;
            let span = lhs.span().to(rhs.span());
            lhs = Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs), span };
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr> {
        match self.peek() {
            TokenKind::Minus => {
                let start = self.bump().span;
                let operand = self.unary_expr()?;
                let span = start.to(operand.span());
                Ok(Expr::Unary { op: UnOp::Neg, operand: Box::new(operand), span })
            }
            TokenKind::Not => {
                let start = self.bump().span;
                let operand = self.unary_expr()?;
                let span = start.to(operand.span());
                Ok(Expr::Unary { op: UnOp::Not, operand: Box::new(operand), span })
            }
            // Cast: `(` type `)` unary
            TokenKind::LParen
                if matches!(self.peek_at(1), TokenKind::KwInt | TokenKind::KwFloat)
                    && *self.peek_at(2) == TokenKind::RParen =>
            {
                let start = self.bump().span; // (
                let to = self.parse_base_type()?;
                self.expect(&TokenKind::RParen)?;
                let operand = self.unary_expr()?;
                let span = start.to(operand.span());
                Ok(Expr::Cast { to, operand: Box::new(operand), span })
            }
            _ => self.postfix_expr(),
        }
    }

    fn postfix_expr(&mut self) -> Result<Expr> {
        let mut e = self.primary_expr()?;
        while *self.peek() == TokenKind::LBracket {
            self.bump();
            let index = self.expr()?;
            let end = self.expect(&TokenKind::RBracket)?.span;
            let span = e.span().to(end);
            e = Expr::Index { base: Box::new(e), index: Box::new(index), span };
        }
        Ok(e)
    }

    fn primary_expr(&mut self) -> Result<Expr> {
        let span = self.span();
        match self.peek().clone() {
            TokenKind::Int(v) => {
                self.bump();
                Ok(Expr::IntLit(v, span))
            }
            TokenKind::Float(v) => {
                self.bump();
                Ok(Expr::FloatLit(v, span))
            }
            TokenKind::Ident(name) => {
                self.bump();
                if *self.peek() == TokenKind::LParen {
                    self.bump();
                    let mut args = Vec::new();
                    if !self.eat(&TokenKind::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat(&TokenKind::Comma) {
                                break;
                            }
                        }
                        self.expect(&TokenKind::RParen)?;
                    }
                    Ok(Expr::Call { callee: name, args, span: span.to(self.prev_span()) })
                } else {
                    Ok(Expr::Var(name, span))
                }
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                Ok(e)
            }
            other => Err(FrontendError::parse(
                format!("expected an expression, found {}", other.describe()),
                span,
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Scalar;

    fn parse_ok(src: &str) -> Program {
        parse(src).unwrap_or_else(|e| panic!("parse failed: {e}\nsource:\n{src}"))
    }

    #[test]
    fn minimal_function() {
        let p = parse_ok("int main() { return 0; }");
        assert_eq!(p.funcs.len(), 1);
        assert_eq!(p.funcs[0].name, "main");
        assert_eq!(p.funcs[0].ret, Type::INT);
        assert_eq!(p.funcs[0].body.stmts.len(), 1);
    }

    #[test]
    fn globals_and_params() {
        let p = parse_ok(
            "int N = 64;\nfloat grid[8][8];\nvoid f(int n, float a[], float m[][8]) { return; }",
        );
        assert_eq!(p.globals.len(), 2);
        assert_eq!(p.globals[0].init, Some(ConstInit::Int(64)));
        assert_eq!(
            p.globals[1].ty,
            Type::Array { elem: Scalar::Float, dims: vec![Some(8), Some(8)] }
        );
        let f = &p.funcs[0];
        assert_eq!(f.params.len(), 3);
        assert_eq!(f.params[1].ty, Type::Array { elem: Scalar::Float, dims: vec![None] });
        assert_eq!(f.params[2].ty, Type::Array { elem: Scalar::Float, dims: vec![None, Some(8)] });
    }

    #[test]
    fn negative_global_init() {
        let p = parse_ok("int x = -5; float y = -2.5; int main() { return 0; }");
        assert_eq!(p.globals[0].init, Some(ConstInit::Int(-5)));
        assert_eq!(p.globals[1].init, Some(ConstInit::Float(-2.5)));
    }

    #[test]
    fn precedence() {
        let p = parse_ok("int main() { int x = 1 + 2 * 3 < 4 && 5 || 6; return x; }");
        let Stmt::Decl { init: Some(e), .. } = &p.funcs[0].body.stmts[0] else {
            panic!("expected decl");
        };
        // ((1 + (2*3)) < 4 && 5) || 6
        let Expr::Binary { op: BinOp::Or, lhs, .. } = e else { panic!("expected ||") };
        let Expr::Binary { op: BinOp::And, lhs: cmp, .. } = lhs.as_ref() else {
            panic!("expected &&")
        };
        let Expr::Binary { op: BinOp::Lt, lhs: add, .. } = cmp.as_ref() else {
            panic!("expected <")
        };
        let Expr::Binary { op: BinOp::Add, rhs: mul, .. } = add.as_ref() else {
            panic!("expected +")
        };
        assert!(matches!(mul.as_ref(), Expr::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn for_loop_with_decl_init() {
        let p = parse_ok("void f() { for (int i = 0; i < 10; i++) { } }");
        let Stmt::For { init, cond, step, .. } = &p.funcs[0].body.stmts[0] else {
            panic!("expected for");
        };
        assert!(matches!(init.as_deref(), Some(Stmt::Decl { .. })));
        assert!(cond.is_some());
        assert!(matches!(step.as_deref(), Some(Stmt::Assign { op: AssignOp::Add, .. })));
    }

    #[test]
    fn for_loop_all_clauses_empty() {
        let p = parse_ok("void f() { for (;;) { break; } }");
        let Stmt::For { init, cond, step, .. } = &p.funcs[0].body.stmts[0] else {
            panic!("expected for");
        };
        assert!(init.is_none() && cond.is_none() && step.is_none());
    }

    #[test]
    fn unbraced_bodies_become_blocks() {
        let p = parse_ok("void f(int n) { if (n > 0) n = 1; else n = 2; while (n) n--; }");
        let Stmt::If { then_branch, else_branch, .. } = &p.funcs[0].body.stmts[0] else {
            panic!("expected if");
        };
        assert_eq!(then_branch.stmts.len(), 1);
        assert_eq!(else_branch.as_ref().unwrap().stmts.len(), 1);
    }

    #[test]
    fn compound_assignment_and_indexing() {
        let p = parse_ok("void f(float a[][4], int i, int j) { a[i][j] += 2.0; }");
        let Stmt::Assign { target, op, .. } = &p.funcs[0].body.stmts[0] else {
            panic!("expected assign");
        };
        assert_eq!(target.name, "a");
        assert_eq!(target.indices.len(), 2);
        assert_eq!(*op, AssignOp::Add);
    }

    #[test]
    fn increment_desugars_to_plus_one() {
        let p = parse_ok("void f(int i) { i++; i--; }");
        let Stmt::Assign { op, value, .. } = &p.funcs[0].body.stmts[0] else { panic!() };
        assert_eq!(*op, AssignOp::Add);
        assert!(matches!(value, Expr::IntLit(1, _)));
        let Stmt::Assign { op, .. } = &p.funcs[0].body.stmts[1] else { panic!() };
        assert_eq!(*op, AssignOp::Sub);
    }

    #[test]
    fn call_statement_and_nested_calls() {
        let p = parse_ok("void g(int x) { } void f() { g(imax(1, 2)); }");
        let Stmt::Expr(Expr::Call { callee, args, .. }) = &p.funcs[1].body.stmts[0] else {
            panic!("expected call stmt");
        };
        assert_eq!(callee, "g");
        assert!(matches!(&args[0], Expr::Call { .. }));
    }

    #[test]
    fn casts() {
        let p = parse_ok("void f(float x) { int i = (int) x; float y = (float)(i + 1); }");
        let Stmt::Decl { init: Some(Expr::Cast { to, .. }), .. } = &p.funcs[0].body.stmts[0] else {
            panic!("expected cast");
        };
        assert_eq!(*to, Type::INT);
    }

    #[test]
    fn parenthesized_expr_is_not_cast() {
        // `(x) + 1` must parse as grouping, not a cast.
        let p = parse_ok("int f(int x) { return (x) + 1; }");
        let Stmt::Return { value: Some(Expr::Binary { op: BinOp::Add, .. }), .. } =
            &p.funcs[0].body.stmts[0]
        else {
            panic!("expected binary add");
        };
    }

    #[test]
    fn error_messages_mention_expectation() {
        let e = parse("int main() { return 0 }").unwrap_err();
        assert!(e.message.contains("expected `;`"), "{e}");
        let e = parse("int main() { int a[0]; }").unwrap_err();
        assert!(e.message.contains("positive constant"), "{e}");
        let e = parse("int main() { 1 + 2; }").unwrap_err();
        assert!(e.message.contains("only call expressions"), "{e}");
    }

    #[test]
    fn statement_spans_cover_lines() {
        let src = "void f() {\n  for (int i = 0; i < 4; i++) {\n    i = i;\n  }\n}";
        let p = parse_ok(src);
        let s = p.funcs[0].body.stmts[0].span();
        assert_eq!(s.line_start, 2);
        assert_eq!(s.line_end, 4);
    }

    #[test]
    fn break_continue() {
        let p = parse_ok("void f() { while (1) { if (1) break; continue; } }");
        let Stmt::While { body, .. } = &p.funcs[0].body.stmts[0] else { panic!() };
        assert!(matches!(body.stmts[1], Stmt::Continue(_)));
    }

    #[test]
    fn rejects_arrays_past_a_u32_slot_count() {
        for src in ["float g[65536][65536];", "void f() { int t[2][2147483648]; }"] {
            let e = parse(src).unwrap_err();
            assert!(e.message.contains("more than 4294967295 elements"), "{src}: {e}");
        }
        let p = parse_ok("float g[65535][65537];\nvoid f(float a[][4294967295]) { }");
        assert_eq!(p.globals[0].ty.slot_count(), u32::MAX);
    }

    #[test]
    fn rejects_array_initializer() {
        assert!(parse("void f() { int a[4] = 0; }").is_err());
        assert!(parse("float g[2] = 1.0; void f() { }").is_err());
    }
}
