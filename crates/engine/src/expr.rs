//! Expression mini-language for parameterizing Filter/Functor/Split
//! operators from ADL params (strings survive serialization, unlike
//! closures).
//!
//! Grammar (recursive descent, C-like precedence):
//! ```text
//! expr    := or
//! or      := and ("||" and)*
//! and     := cmp ("&&" cmp)*
//! cmp     := add (("=="|"!="|"<="|">="|"<"|">") add)?
//! add     := mul (("+"|"-") mul)*
//! mul     := unary (("*"|"/"|"%") unary)*
//! unary   := ("!"|"-") unary | primary
//! primary := int | float | "string" | true | false | ident | "(" expr ")"
//! ```
//! Identifiers reference tuple attributes. Arithmetic coerces int→float when
//! mixed; `+` concatenates strings; comparisons work on numbers and strings.
//! Integer arithmetic wraps, division and negation included (`i64::MIN / -1`
//! is `i64::MIN`), in debug and release builds alike.
//!
//! # Two evaluators, one definition
//!
//! [`Expr::eval`] defines the language: every value and every fault string
//! comes from it. It walks the AST by attribute *name* and hands an owned
//! `Result<Value, EngineError>` out of every node, which is plumbing, not
//! work, for an operator that evaluates `seq * 2` on every tuple of a
//! stream. SPL compiles each invocation's expressions to C++ (§2.1); the
//! stand-in here is [`BoundExpr`]: the AST lowered once, attribute reads
//! resolved to row positions against the last [`Schema`] seen, and evaluated
//! over [`Scalar`]s — `Copy` values borrowed from the row — with `Option` as
//! the only control flow.
//!
//! The contract between the two: **the fast path decides or defers, never
//! disagrees.** [`BoundExpr::eval_scalar`] returns `Some(s)` only when
//! `Expr::eval` returns `Ok` of exactly that value (floats bit for bit). On
//! anything else — a missing attribute, a type error, integer division by
//! zero, a list operand, a string concatenation — it returns `None` and the
//! caller asks `Expr::eval`, so an error is always the oracle's own text.
//! The property tests in `tests/prop_engine.rs` hold the two against each
//! other over generated ASTs and shape-changing tuple sequences.
//!
//! The binding is a cache, a pure function of (expression, schema): it holds
//! a strong reference to the schema it resolved against and compares it by
//! pointer per tuple, rebinds with one name scan when a stream changes
//! shape, and is never checkpointed — the first tuple after a restore
//! rebuilds it.

use crate::error::EngineError;
use crate::tuple::{Schema, Tuple};
use sps_model::Value;
use std::rc::Rc;

/// Parsed expression AST.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    Literal(Value),
    Attr(String),
    Unary(UnaryOp, Box<Expr>),
    Binary(BinaryOp, Box<Expr>, Box<Expr>),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnaryOp {
    Not,
    Neg,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinaryOp {
    Or,
    And,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

impl Expr {
    /// Parses an expression from source text.
    pub fn parse(src: &str) -> Result<Expr, EngineError> {
        let tokens = tokenize(src)?;
        let mut p = ExprParser { tokens, pos: 0 };
        let e = p.parse_or()?;
        if p.pos != p.tokens.len() {
            return Err(EngineError::Expr(format!(
                "unexpected trailing token {:?}",
                p.tokens[p.pos]
            )));
        }
        Ok(e)
    }

    /// Evaluates against a tuple.
    pub fn eval(&self, tuple: &Tuple) -> Result<Value, EngineError> {
        match self {
            Expr::Literal(v) => Ok(v.clone()),
            Expr::Attr(name) => tuple
                .get(name)
                .cloned()
                .ok_or_else(|| EngineError::Expr(format!("missing attribute '{name}'"))),
            Expr::Unary(op, inner) => {
                let v = inner.eval(tuple)?;
                match op {
                    UnaryOp::Not => match v {
                        Value::Bool(b) => Ok(Value::Bool(!b)),
                        other => Err(type_err("!", &other)),
                    },
                    UnaryOp::Neg => match v {
                        Value::Int(i) => Ok(Value::Int(i.wrapping_neg())),
                        Value::Float(f) => Ok(Value::Float(-f)),
                        other => Err(type_err("-", &other)),
                    },
                }
            }
            Expr::Binary(op, lhs, rhs) => {
                // Short-circuit logical operators.
                match op {
                    BinaryOp::And => {
                        return match lhs.eval(tuple)? {
                            Value::Bool(false) => Ok(Value::Bool(false)),
                            Value::Bool(true) => expect_bool(rhs.eval(tuple)?),
                            other => Err(type_err("&&", &other)),
                        };
                    }
                    BinaryOp::Or => {
                        return match lhs.eval(tuple)? {
                            Value::Bool(true) => Ok(Value::Bool(true)),
                            Value::Bool(false) => expect_bool(rhs.eval(tuple)?),
                            other => Err(type_err("||", &other)),
                        };
                    }
                    _ => {}
                }
                let l = lhs.eval(tuple)?;
                let r = rhs.eval(tuple)?;
                eval_binary(*op, l, r)
            }
        }
    }

    /// Evaluates, requiring a boolean result (Filter predicates).
    pub fn eval_bool(&self, tuple: &Tuple) -> Result<bool, EngineError> {
        match self.eval(tuple)? {
            Value::Bool(b) => Ok(b),
            other => Err(EngineError::Expr(format!(
                "expected bool result, got {other:?}"
            ))),
        }
    }

    /// Attribute names the expression references, each once, in order of
    /// first appearance: the attribute table of a [`BoundExpr`].
    pub fn referenced_attrs(&self) -> Vec<&str> {
        let mut out = Vec::new();
        fn walk<'e>(e: &'e Expr, out: &mut Vec<&'e str>) {
            match e {
                Expr::Literal(_) => {}
                Expr::Attr(n) => {
                    if !out.contains(&n.as_str()) {
                        out.push(n);
                    }
                }
                Expr::Unary(_, i) => walk(i, out),
                Expr::Binary(_, l, r) => {
                    walk(l, out);
                    walk(r, out);
                }
            }
        }
        walk(self, &mut out);
        out
    }
}

/// A value borrowed from a tuple's row or from an expression's literals:
/// every [`Value`] kind but `List`. `Copy`, so evaluation passes it by value
/// and clones no string.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Scalar<'a> {
    Int(i64),
    Float(f64),
    Bool(bool),
    Timestamp(u64),
    Str(&'a str),
}

impl<'a> Scalar<'a> {
    /// The scalar view of `v`; a list has none.
    #[inline]
    pub fn of(v: &'a Value) -> Option<Scalar<'a>> {
        Some(match v {
            Value::Int(i) => Scalar::Int(*i),
            Value::Float(f) => Scalar::Float(*f),
            Value::Bool(b) => Scalar::Bool(*b),
            Value::Timestamp(t) => Scalar::Timestamp(*t),
            Value::Str(s) => Scalar::Str(s),
            Value::List(_) => return None,
        })
    }

    /// The owned value this scalar stands for.
    #[inline]
    pub fn to_value(self) -> Value {
        match self {
            Scalar::Int(i) => Value::Int(i),
            Scalar::Float(f) => Value::Float(f),
            Scalar::Bool(b) => Value::Bool(b),
            Scalar::Timestamp(t) => Value::Timestamp(t),
            Scalar::Str(s) => Value::Str(s.to_string()),
        }
    }

    /// [`Value::as_f64`]: ints, floats and timestamps are numbers.
    #[inline]
    fn as_f64(self) -> Option<f64> {
        match self {
            Scalar::Int(i) => Some(i as f64),
            Scalar::Float(f) => Some(f),
            Scalar::Timestamp(t) => Some(t as f64),
            Scalar::Bool(_) | Scalar::Str(_) => None,
        }
    }
}

/// The AST with each attribute name replaced by its index in the bound
/// expression's attribute table.
#[derive(Debug)]
enum Node {
    Literal(Value),
    Attr(usize),
    Unary(UnaryOp, Box<Node>),
    Binary(BinaryOp, Box<Node>, Box<Node>),
}

impl Node {
    fn lower(expr: &Expr, attrs: &[&str]) -> Node {
        match expr {
            Expr::Literal(v) => Node::Literal(v.clone()),
            Expr::Attr(name) => Node::Attr(
                attrs
                    .iter()
                    .position(|a| a == name)
                    .expect("referenced_attrs lists every attribute of the expression"),
            ),
            Expr::Unary(op, inner) => Node::Unary(*op, Box::new(Node::lower(inner, attrs))),
            Expr::Binary(op, lhs, rhs) => Node::Binary(
                *op,
                Box::new(Node::lower(lhs, attrs)),
                Box::new(Node::lower(rhs, attrs)),
            ),
        }
    }

    /// `Some` of what [`Expr::eval`] returns, or `None` to send the caller
    /// there. `slots[i]` is where attribute `i` sits in `values`; a slot
    /// past the end (an attribute the schema lacks) reads as `None`.
    fn eval<'a>(&'a self, slots: &[usize], values: &'a [Value]) -> Option<Scalar<'a>> {
        match self {
            Node::Literal(v) => Scalar::of(v),
            Node::Attr(i) => Scalar::of(values.get(slots[*i])?),
            Node::Unary(op, inner) => match (op, inner.eval(slots, values)?) {
                (UnaryOp::Not, Scalar::Bool(b)) => Some(Scalar::Bool(!b)),
                (UnaryOp::Neg, Scalar::Int(i)) => Some(Scalar::Int(i.wrapping_neg())),
                (UnaryOp::Neg, Scalar::Float(f)) => Some(Scalar::Float(-f)),
                _ => None,
            },
            // Short-circuit: the right side is evaluated only when the left
            // does not decide, so an error there stays unseen, as in `eval`.
            Node::Binary(op @ (BinaryOp::And | BinaryOp::Or), lhs, rhs) => {
                let Scalar::Bool(l) = lhs.eval(slots, values)? else {
                    return None;
                };
                if l == (*op == BinaryOp::Or) {
                    return Some(Scalar::Bool(l));
                }
                match rhs.eval(slots, values)? {
                    r @ Scalar::Bool(_) => Some(r),
                    _ => None,
                }
            }
            Node::Binary(op, lhs, rhs) => {
                scalar_binary(*op, lhs.eval(slots, values)?, rhs.eval(slots, values)?)
            }
        }
    }
}

/// [`eval_binary`] over scalars, for the operand pairs it has a value for.
#[inline]
fn scalar_binary<'a>(op: BinaryOp, l: Scalar<'a>, r: Scalar<'a>) -> Option<Scalar<'a>> {
    use BinaryOp::*;
    Some(match (l, r) {
        (Scalar::Str(a), Scalar::Str(b)) => Scalar::Bool(match op {
            Eq => a == b,
            Ne => a != b,
            Lt => a < b,
            Le => a <= b,
            Gt => a > b,
            Ge => a >= b,
            _ => return None,
        }),
        (Scalar::Bool(a), Scalar::Bool(b)) => Scalar::Bool(match op {
            Eq => a == b,
            Ne => a != b,
            _ => return None,
        }),
        (Scalar::Int(a), Scalar::Int(b)) => match op {
            Add => Scalar::Int(a.wrapping_add(b)),
            Sub => Scalar::Int(a.wrapping_sub(b)),
            Mul => Scalar::Int(a.wrapping_mul(b)),
            Div if b != 0 => Scalar::Int(a.wrapping_div(b)),
            Mod if b != 0 => Scalar::Int(a.wrapping_rem(b)),
            Eq => Scalar::Bool(a == b),
            Ne => Scalar::Bool(a != b),
            Lt => Scalar::Bool(a < b),
            Le => Scalar::Bool(a <= b),
            Gt => Scalar::Bool(a > b),
            Ge => Scalar::Bool(a >= b),
            Div | Mod | And | Or => return None,
        },
        // Mixed numeric, timestamps included (two timestamps too): f64.
        _ => {
            let (a, b) = (l.as_f64()?, r.as_f64()?);
            match op {
                Add => Scalar::Float(a + b),
                Sub => Scalar::Float(a - b),
                Mul => Scalar::Float(a * b),
                Div => Scalar::Float(a / b),
                Mod => Scalar::Float(a % b),
                Eq => Scalar::Bool(a == b),
                Ne => Scalar::Bool(a != b),
                Lt => Scalar::Bool(a < b),
                Le => Scalar::Bool(a <= b),
                Gt => Scalar::Bool(a > b),
                Ge => Scalar::Bool(a >= b),
                And | Or => return None,
            }
        }
    })
}

/// Slot of an attribute the bound schema does not have: past the end of any
/// row, so the read fails and evaluation defers.
const MISSING: usize = usize::MAX;

/// An [`Expr`] bound to the schema of the stream it is evaluated on (see the
/// module docs for the contract with [`Expr::eval`]).
#[derive(Debug)]
pub struct BoundExpr {
    expr: Expr,
    root: Node,
    /// The names `expr` references; `Node::Attr(i)` reads `attrs[i]`.
    attrs: Vec<String>,
    /// `slots[i]` is the position of `attrs[i]` in `schema`, or [`MISSING`].
    slots: Vec<usize>,
    /// The schema `slots` was resolved against. Held, not merely pointed
    /// at: a freed schema's address could come back under other names.
    schema: Option<Rc<Schema>>,
}

impl BoundExpr {
    pub fn new(expr: Expr) -> BoundExpr {
        let attrs = expr.referenced_attrs();
        BoundExpr {
            root: Node::lower(&expr, &attrs),
            slots: vec![MISSING; attrs.len()],
            attrs: attrs.into_iter().map(str::to_string).collect(),
            schema: None,
            expr,
        }
    }

    pub fn parse(src: &str) -> Result<BoundExpr, EngineError> {
        Expr::parse(src).map(BoundExpr::new)
    }

    /// The expression as parsed: the cold path and the oracle.
    pub fn expr(&self) -> &Expr {
        &self.expr
    }

    /// The fast path: `Some(s)` exactly when [`Expr::eval`] returns
    /// `Ok(s.to_value())`, `None` whenever the caller has to ask it.
    #[inline]
    pub fn eval_scalar<'a>(&'a mut self, tuple: &'a Tuple) -> Option<Scalar<'a>> {
        let schema = tuple.schema();
        if !self.schema.as_ref().is_some_and(|s| Rc::ptr_eq(s, schema)) {
            self.rebind(schema);
        }
        self.root.eval(&self.slots, tuple.values())
    }

    /// What [`Expr::eval`] returns, by the fast path where it decides.
    #[inline]
    pub fn eval(&mut self, tuple: &Tuple) -> Result<Value, EngineError> {
        match self.eval_scalar(tuple) {
            Some(s) => Ok(s.to_value()),
            None => self.expr.eval(tuple),
        }
    }

    #[cold]
    fn rebind(&mut self, schema: &Rc<Schema>) {
        for (slot, name) in self.slots.iter_mut().zip(&self.attrs) {
            *slot = schema.position(name).unwrap_or(MISSING);
        }
        self.schema = Some(Rc::clone(schema));
    }
}

fn expect_bool(v: Value) -> Result<Value, EngineError> {
    match v {
        Value::Bool(_) => Ok(v),
        other => Err(type_err("logical operand", &other)),
    }
}

fn type_err(op: &str, v: &Value) -> EngineError {
    EngineError::Expr(format!("type error: {op} applied to {v:?}"))
}

fn eval_binary(op: BinaryOp, l: Value, r: Value) -> Result<Value, EngineError> {
    use BinaryOp::*;
    // String concatenation and comparison.
    if let (Value::Str(a), Value::Str(b)) = (&l, &r) {
        return match op {
            Add => Ok(Value::Str(format!("{a}{b}"))),
            Eq => Ok(Value::Bool(a == b)),
            Ne => Ok(Value::Bool(a != b)),
            Lt => Ok(Value::Bool(a < b)),
            Le => Ok(Value::Bool(a <= b)),
            Gt => Ok(Value::Bool(a > b)),
            Ge => Ok(Value::Bool(a >= b)),
            _ => Err(EngineError::Expr(format!("{op:?} not defined on strings"))),
        };
    }
    if let (Value::Bool(a), Value::Bool(b)) = (&l, &r) {
        return match op {
            Eq => Ok(Value::Bool(a == b)),
            Ne => Ok(Value::Bool(a != b)),
            _ => Err(EngineError::Expr(format!("{op:?} not defined on bools"))),
        };
    }
    // Integer-preserving arithmetic when both sides are ints.
    if let (Value::Int(a), Value::Int(b)) = (&l, &r) {
        let (a, b) = (*a, *b);
        return Ok(match op {
            Add => Value::Int(a.wrapping_add(b)),
            Sub => Value::Int(a.wrapping_sub(b)),
            Mul => Value::Int(a.wrapping_mul(b)),
            Div => {
                if b == 0 {
                    return Err(EngineError::Expr("integer division by zero".into()));
                }
                Value::Int(a.wrapping_div(b))
            }
            Mod => {
                if b == 0 {
                    return Err(EngineError::Expr("integer modulo by zero".into()));
                }
                Value::Int(a.wrapping_rem(b))
            }
            Eq => Value::Bool(a == b),
            Ne => Value::Bool(a != b),
            Lt => Value::Bool(a < b),
            Le => Value::Bool(a <= b),
            Gt => Value::Bool(a > b),
            Ge => Value::Bool(a >= b),
            And | Or => unreachable!("handled by short-circuit path"),
        });
    }
    // Mixed numeric: coerce to f64 (timestamps included).
    let (Some(a), Some(b)) = (l.as_f64(), r.as_f64()) else {
        return Err(EngineError::Expr(format!(
            "type error: {op:?} applied to {l:?} and {r:?}"
        )));
    };
    Ok(match op {
        Add => Value::Float(a + b),
        Sub => Value::Float(a - b),
        Mul => Value::Float(a * b),
        Div => Value::Float(a / b),
        Mod => Value::Float(a % b),
        Eq => Value::Bool(a == b),
        Ne => Value::Bool(a != b),
        Lt => Value::Bool(a < b),
        Le => Value::Bool(a <= b),
        Gt => Value::Bool(a > b),
        Ge => Value::Bool(a >= b),
        And | Or => unreachable!("handled by short-circuit path"),
    })
}

#[derive(Clone, Debug, PartialEq)]
enum Token {
    Int(i64),
    Float(f64),
    Str(String),
    Ident(String),
    True,
    False,
    LParen,
    RParen,
    Op(BinaryOp),
    Bang,
    Minus,
    Plus,
    Star,
    Slash,
    Percent,
}

type Chars<'a> = std::iter::Peekable<std::str::Chars<'a>>;

fn tokenize(src: &str) -> Result<Vec<Token>, EngineError> {
    let mut tokens = Vec::new();
    let mut chars = src.chars().peekable();
    while let Some(&c) = chars.peek() {
        let token = match c {
            ' ' | '\t' | '\n' | '\r' => {
                chars.next();
                continue;
            }
            '"' => string_literal(&mut chars)?,
            c if c.is_ascii_digit() => number(&mut chars)?,
            c if c.is_alphabetic() || c == '_' => word(&mut chars),
            _ => punctuation(&mut chars)?,
        };
        tokens.push(token);
    }
    Ok(tokens)
}

/// An operator or a parenthesis: one character, or two for `!=`, `<=`,
/// `>=`, `==`, `&&` and `||`.
fn punctuation(chars: &mut Chars<'_>) -> Result<Token, EngineError> {
    let c = chars.next().expect("peeked");
    Ok(match c {
        '(' => Token::LParen,
        ')' => Token::RParen,
        '+' => Token::Plus,
        '-' => Token::Minus,
        '*' => Token::Star,
        '/' => Token::Slash,
        '%' => Token::Percent,
        '!' => or_equals(chars, Token::Bang, BinaryOp::Ne),
        '<' => or_equals(chars, Token::Op(BinaryOp::Lt), BinaryOp::Le),
        '>' => or_equals(chars, Token::Op(BinaryOp::Gt), BinaryOp::Ge),
        '=' => doubled(chars, c, BinaryOp::Eq)?,
        '&' => doubled(chars, c, BinaryOp::And)?,
        '|' => doubled(chars, c, BinaryOp::Or)?,
        other => return Err(EngineError::Expr(format!("unexpected character '{other}'"))),
    })
}

/// `plain`, or `with_equals` when an `=` follows.
fn or_equals(chars: &mut Chars<'_>, plain: Token, with_equals: BinaryOp) -> Token {
    match chars.next_if_eq(&'=') {
        Some(_) => Token::Op(with_equals),
        None => plain,
    }
}

/// An operator written as its character twice; the character alone is an
/// error.
fn doubled(chars: &mut Chars<'_>, c: char, op: BinaryOp) -> Result<Token, EngineError> {
    if chars.next() == Some(c) {
        Ok(Token::Op(op))
    } else {
        Err(EngineError::Expr(format!("single '{c}' (use '{c}{c}')")))
    }
}

/// A double-quoted string with `\"`, `\\` and `\n` escapes.
fn string_literal(chars: &mut Chars<'_>) -> Result<Token, EngineError> {
    chars.next();
    let mut s = String::new();
    loop {
        match chars.next() {
            Some('"') => return Ok(Token::Str(s)),
            Some('\\') => match chars.next() {
                Some('"') => s.push('"'),
                Some('\\') => s.push('\\'),
                Some('n') => s.push('\n'),
                other => {
                    return Err(EngineError::Expr(format!(
                        "bad escape {other:?} in string literal"
                    )))
                }
            },
            Some(c) => s.push(c),
            None => return Err(EngineError::Expr("unterminated string literal".into())),
        }
    }
}

/// Digits, with at most one `.` among them: an int, or a float if the dot
/// is there.
fn number(chars: &mut Chars<'_>) -> Result<Token, EngineError> {
    let mut text = String::new();
    let mut is_float = false;
    while let Some(&c) = chars.peek() {
        if c.is_ascii_digit() {
            text.push(c);
            chars.next();
        } else if c == '.' && !is_float {
            is_float = true;
            text.push(c);
            chars.next();
        } else {
            break;
        }
    }
    if is_float {
        Ok(Token::Float(text.parse().map_err(|_| {
            EngineError::Expr(format!("bad float literal '{text}'"))
        })?))
    } else {
        Ok(Token::Int(text.parse().map_err(|_| {
            EngineError::Expr(format!("bad int literal '{text}'"))
        })?))
    }
}

/// An identifier, or the literal `true` / `false`.
fn word(chars: &mut Chars<'_>) -> Token {
    let mut ident = String::new();
    while let Some(c) = chars.next_if(|&c| c.is_alphanumeric() || c == '_') {
        ident.push(c);
    }
    match ident.as_str() {
        "true" => Token::True,
        "false" => Token::False,
        _ => Token::Ident(ident),
    }
}

struct ExprParser {
    tokens: Vec<Token>,
    pos: usize,
}

impl ExprParser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn parse_or(&mut self) -> Result<Expr, EngineError> {
        let mut lhs = self.parse_and()?;
        while self.peek() == Some(&Token::Op(BinaryOp::Or)) {
            self.next();
            let rhs = self.parse_and()?;
            lhs = Expr::Binary(BinaryOp::Or, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<Expr, EngineError> {
        let mut lhs = self.parse_cmp()?;
        while self.peek() == Some(&Token::Op(BinaryOp::And)) {
            self.next();
            let rhs = self.parse_cmp()?;
            lhs = Expr::Binary(BinaryOp::And, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_cmp(&mut self) -> Result<Expr, EngineError> {
        let lhs = self.parse_add()?;
        if let Some(Token::Op(op)) = self.peek() {
            let op = *op;
            if matches!(
                op,
                BinaryOp::Eq
                    | BinaryOp::Ne
                    | BinaryOp::Lt
                    | BinaryOp::Le
                    | BinaryOp::Gt
                    | BinaryOp::Ge
            ) {
                self.next();
                let rhs = self.parse_add()?;
                return Ok(Expr::Binary(op, Box::new(lhs), Box::new(rhs)));
            }
        }
        Ok(lhs)
    }

    fn parse_add(&mut self) -> Result<Expr, EngineError> {
        let mut lhs = self.parse_mul()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinaryOp::Add,
                Some(Token::Minus) => BinaryOp::Sub,
                _ => break,
            };
            self.next();
            let rhs = self.parse_mul()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_mul(&mut self) -> Result<Expr, EngineError> {
        let mut lhs = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => BinaryOp::Mul,
                Some(Token::Slash) => BinaryOp::Div,
                Some(Token::Percent) => BinaryOp::Mod,
                _ => break,
            };
            self.next();
            let rhs = self.parse_unary()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr, EngineError> {
        match self.peek() {
            Some(Token::Bang) => {
                self.next();
                Ok(Expr::Unary(UnaryOp::Not, Box::new(self.parse_unary()?)))
            }
            Some(Token::Minus) => {
                self.next();
                Ok(Expr::Unary(UnaryOp::Neg, Box::new(self.parse_unary()?)))
            }
            _ => self.parse_primary(),
        }
    }

    fn parse_primary(&mut self) -> Result<Expr, EngineError> {
        match self.next() {
            Some(Token::Int(v)) => Ok(Expr::Literal(Value::Int(v))),
            Some(Token::Float(v)) => Ok(Expr::Literal(Value::Float(v))),
            Some(Token::Str(s)) => Ok(Expr::Literal(Value::Str(s))),
            Some(Token::True) => Ok(Expr::Literal(Value::Bool(true))),
            Some(Token::False) => Ok(Expr::Literal(Value::Bool(false))),
            Some(Token::Ident(name)) => Ok(Expr::Attr(name)),
            Some(Token::LParen) => {
                let e = self.parse_or()?;
                match self.next() {
                    Some(Token::RParen) => Ok(e),
                    _ => Err(EngineError::Expr("expected ')'".into())),
                }
            }
            other => Err(EngineError::Expr(format!("unexpected token {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> Tuple {
        Tuple::new()
            .with("price", 101.5)
            .with("vol", 300i64)
            .with("sym", "IBM")
            .with("neg", true)
    }

    fn eval(src: &str) -> Value {
        Expr::parse(src).unwrap().eval(&t()).unwrap()
    }

    #[test]
    fn literals() {
        assert_eq!(eval("42"), Value::Int(42));
        assert_eq!(eval("2.5"), Value::Float(2.5));
        assert_eq!(eval("\"hi\""), Value::Str("hi".into()));
        assert_eq!(eval("true"), Value::Bool(true));
        assert_eq!(eval("false"), Value::Bool(false));
    }

    #[test]
    fn attribute_refs() {
        assert_eq!(eval("vol"), Value::Int(300));
        assert_eq!(eval("sym"), Value::Str("IBM".into()));
        let err = Expr::parse("ghost").unwrap().eval(&t()).unwrap_err();
        assert!(err.to_string().contains("missing attribute"));
    }

    #[test]
    fn arithmetic_precedence() {
        assert_eq!(eval("2 + 3 * 4"), Value::Int(14));
        assert_eq!(eval("(2 + 3) * 4"), Value::Int(20));
        assert_eq!(eval("10 / 3"), Value::Int(3));
        assert_eq!(eval("10 % 3"), Value::Int(1));
        assert_eq!(eval("10.0 / 4"), Value::Float(2.5));
        assert_eq!(eval("vol * 2"), Value::Int(600));
        assert_eq!(eval("price + 0.5"), Value::Float(102.0));
    }

    #[test]
    fn unary_ops() {
        assert_eq!(eval("-5"), Value::Int(-5));
        assert_eq!(eval("--5"), Value::Int(5));
        assert_eq!(eval("!true"), Value::Bool(false));
        assert_eq!(eval("!!neg"), Value::Bool(true));
        assert_eq!(eval("-price"), Value::Float(-101.5));
    }

    #[test]
    fn comparisons() {
        assert_eq!(eval("vol > 100"), Value::Bool(true));
        assert_eq!(eval("vol >= 300"), Value::Bool(true));
        assert_eq!(eval("vol < 300"), Value::Bool(false));
        assert_eq!(eval("price <= 101.5"), Value::Bool(true));
        assert_eq!(eval("vol == 300"), Value::Bool(true));
        assert_eq!(eval("vol != 300"), Value::Bool(false));
        assert_eq!(eval("sym == \"IBM\""), Value::Bool(true));
        assert_eq!(eval("sym < \"JBM\""), Value::Bool(true));
        // Mixed int/float comparison coerces.
        assert_eq!(eval("vol == 300.0"), Value::Bool(true));
    }

    #[test]
    fn logical_ops_and_precedence() {
        assert_eq!(eval("vol > 100 && sym == \"IBM\""), Value::Bool(true));
        assert_eq!(eval("vol > 1000 || neg"), Value::Bool(true));
        // && binds tighter than ||.
        assert_eq!(eval("false && false || true"), Value::Bool(true));
    }

    #[test]
    fn short_circuit_skips_rhs_errors() {
        // RHS references a missing attribute but must not be evaluated.
        assert_eq!(eval("false && ghost > 1"), Value::Bool(false));
        assert_eq!(eval("true || ghost > 1"), Value::Bool(true));
    }

    #[test]
    fn string_concat() {
        assert_eq!(eval("sym + \"!\""), Value::Str("IBM!".into()));
    }

    #[test]
    fn division_by_zero() {
        assert!(Expr::parse("1 / 0").unwrap().eval(&t()).is_err());
        assert!(Expr::parse("1 % 0").unwrap().eval(&t()).is_err());
        // Float division by zero is IEEE.
        assert_eq!(eval("1.0 / 0.0"), Value::Float(f64::INFINITY));
    }

    #[test]
    fn type_errors() {
        assert!(Expr::parse("sym * 2").unwrap().eval(&t()).is_err());
        assert!(Expr::parse("!vol").unwrap().eval(&t()).is_err());
        assert!(Expr::parse("-sym").unwrap().eval(&t()).is_err());
        assert!(Expr::parse("true && 1").unwrap().eval(&t()).is_err());
        assert!(Expr::parse("true - false").unwrap().eval(&t()).is_err());
    }

    #[test]
    fn eval_bool_enforces_type() {
        assert!(Expr::parse("vol").unwrap().eval_bool(&t()).is_err());
        assert!(Expr::parse("vol > 0").unwrap().eval_bool(&t()).unwrap());
    }

    #[test]
    fn parse_errors() {
        assert!(Expr::parse("1 +").is_err());
        assert!(Expr::parse("(1").is_err());
        assert!(Expr::parse("1 = 2").is_err());
        assert!(Expr::parse("a & b").is_err());
        assert!(Expr::parse("a | b").is_err());
        assert!(Expr::parse("\"unterminated").is_err());
        assert!(Expr::parse("1 2").is_err());
        assert!(Expr::parse("@").is_err());
        assert!(Expr::parse("\"bad \\x escape\"").is_err());
    }

    #[test]
    fn string_escapes() {
        assert_eq!(eval("\"a\\\"b\\\\c\\n\""), Value::Str("a\"b\\c\n".into()));
    }

    #[test]
    fn referenced_attrs_dedups() {
        let e = Expr::parse("price > 1 && price < 2 || sym == \"X\"").unwrap();
        assert_eq!(e.referenced_attrs(), vec!["price", "sym"]);
        assert!(Expr::parse("1 + 2").unwrap().referenced_attrs().is_empty());
    }

    #[test]
    fn timestamp_coercion() {
        let tup = Tuple::new().with("ts", Value::Timestamp(5000));
        let e = Expr::parse("ts > 1000").unwrap();
        assert_eq!(e.eval(&tup).unwrap(), Value::Bool(true));
    }

    /// `i64::MIN / -1`, `i64::MIN % -1` and `-i64::MIN` used to panic (the
    /// negation only in debug builds); they wrap, like `+ - *`.
    #[test]
    fn integer_overflow_wraps_on_both_paths() {
        // i64::MIN has no literal: the lexer reads the digits first.
        let tup = Tuple::new().with("min", i64::MIN).with("m1", -1i64);
        for (src, want) in [
            ("min / m1", i64::MIN),
            ("min / -1", i64::MIN),
            ("min % m1", 0),
            ("min % -1", 0),
            ("-min", i64::MIN),
            ("0 - min", i64::MIN),
            ("min - 1", i64::MAX),
        ] {
            let mut e = BoundExpr::parse(src).unwrap();
            assert_eq!(e.expr().eval(&tup).unwrap(), Value::Int(want), "{src}");
            assert_eq!(e.eval_scalar(&tup), Some(Scalar::Int(want)), "{src}");
        }
    }

    /// The fast path over `t()`: `Some` of the oracle's value, or `None`.
    fn fast(src: &str) -> Option<Value> {
        let mut e = BoundExpr::parse(src).unwrap();
        let tup = t();
        let fast = e.eval_scalar(&tup).map(Scalar::to_value);
        if let Some(v) = &fast {
            assert_eq!(e.expr().eval(&tup).as_ref(), Ok(v), "{src}");
        }
        assert_eq!(e.eval(&tup), e.expr().eval(&tup), "{src}");
        fast
    }

    #[test]
    fn fast_path_decides_scalars_and_defers_the_rest() {
        assert_eq!(fast("vol * 2"), Some(Value::Int(600)));
        assert_eq!(fast("price + vol"), Some(Value::Float(401.5)));
        assert_eq!(fast("sym == \"IBM\""), Some(Value::Bool(true)));
        assert_eq!(fast("sym"), Some(Value::Str("IBM".into())));
        assert_eq!(fast("!neg || vol % 7 > 5"), Some(Value::Bool(true)));
        assert_eq!(fast("false && ghost > 1"), Some(Value::Bool(false)));
        assert_eq!(fast("1.0 / 0.0"), Some(Value::Float(f64::INFINITY)));
        // Deferred: what has no scalar, and everything that is an error.
        for src in [
            "sym + \"!\"",
            "ghost",
            "true && ghost > 1",
            "vol / 0",
            "vol % 0",
            "sym * 2",
            "!vol",
            "-sym",
            "true && 1",
            "1 || true",
            "neg < neg",
            "sym == 1",
        ] {
            assert_eq!(fast(src), None, "{src}");
        }
        // Two timestamps compare as floats, as mixed operands do.
        let big = Tuple::new()
            .with("a", Value::Timestamp(u64::MAX))
            .with("b", Value::Timestamp(u64::MAX - 1));
        let mut e = BoundExpr::parse("a == b").unwrap();
        assert_eq!(e.eval_scalar(&big), Some(Scalar::Bool(true)));
        assert_eq!(e.expr().eval(&big), Ok(Value::Bool(true)));
        // A list is never a scalar, as an attribute or as a literal.
        let listed = Tuple::new().with("l", Value::List(vec![Value::Int(1)]));
        assert_eq!(BoundExpr::parse("l").unwrap().eval_scalar(&listed), None);
        let mut lit = BoundExpr::new(Expr::Literal(Value::List(vec![])));
        assert_eq!(lit.eval_scalar(&listed), None);
        assert_eq!(lit.eval(&listed), Ok(Value::List(vec![])));
    }

    #[test]
    fn binding_follows_the_stream_through_shape_changes() {
        let mut e = BoundExpr::parse("a - b").unwrap();
        let ab = Schema::new(&["a", "b"]);
        let ba = Schema::new(&["b", "a"]);
        let row = |s: &Rc<Schema>, x: i64, y: i64| {
            Tuple::from_schema(s, vec![Value::Int(x), Value::Int(y)])
        };
        assert_eq!(e.eval_scalar(&row(&ab, 5, 3)), Some(Scalar::Int(2)));
        assert_eq!(e.eval_scalar(&row(&ab, 9, 3)), Some(Scalar::Int(6)));
        // Same names, other order: the slots swap.
        assert_eq!(e.eval_scalar(&row(&ba, 5, 3)), Some(Scalar::Int(-2)));
        // A shorter row: `b` is gone, and the oracle says so.
        let only_a = Tuple::new().with("a", 1i64);
        assert_eq!(e.eval_scalar(&only_a), None);
        assert_eq!(
            e.eval(&only_a).unwrap_err().to_string(),
            Expr::parse("b")
                .unwrap()
                .eval(&only_a)
                .unwrap_err()
                .to_string()
        );
        // Wider, with the attributes further out.
        let wide = Tuple::new().with("x", 0i64).with("b", 1i64).with("a", 8i64);
        assert_eq!(e.eval_scalar(&wide), Some(Scalar::Int(7)));
        // The first shape again, by content, under another `Rc`.
        let again = Schema::new(&["a", "b"]);
        assert_eq!(e.eval_scalar(&row(&again, 5, 3)), Some(Scalar::Int(2)));
        assert_eq!(e.eval_scalar(&row(&ab, 5, 3)), Some(Scalar::Int(2)));
    }

    /// The bound schema is compared by address, so the binding has to keep
    /// it alive: a schema freed and another allocated in its place would
    /// otherwise pass for the one the slots were resolved against.
    #[test]
    fn a_binding_holds_the_schema_it_resolved_against() {
        let mut e = BoundExpr::parse("a").unwrap();
        let first = Schema::new(&["a"]);
        let weak = Rc::downgrade(&first);
        e.eval_scalar(&Tuple::from_schema(&first, vec![Value::Int(1)]));
        drop(first);
        assert!(weak.upgrade().is_some());
        // It lets go when the stream moves on.
        e.eval_scalar(&Tuple::new().with("a", 2i64));
        assert!(weak.upgrade().is_none());
    }
}
