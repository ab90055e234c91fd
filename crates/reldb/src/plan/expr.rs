//! Bound scalar expressions and their evaluation.
//!
//! After binding, every column reference is an offset into the operator's
//! input row, so evaluation needs no name lookups. SQL three-valued logic
//! lives here: comparisons over NULL yield NULL, `AND`/`OR` follow Kleene
//! semantics, and a WHERE clause keeps a row only when its predicate
//! evaluates to exactly `TRUE`.

use std::cmp::Ordering;

use crate::error::{DbError, Result};
use crate::sql::ast::{BinOp, UnOp};
use crate::value::{Row, Value};

/// Scalar function in the implemented subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarFunc {
    /// `NUM(t)` — parse text as a number (NULL when not numeric). The
    /// XPath-to-SQL translator uses this to compare TEXT-stored XML values
    /// numerically.
    Num,
}

impl ScalarFunc {
    /// Resolve by (lowercase) name.
    pub fn by_name(name: &str) -> Option<ScalarFunc> {
        (name == "num").then_some(ScalarFunc::Num)
    }
}

/// Aggregate function (single group: the subset has no GROUP BY).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)`
    CountStar,
    /// `COUNT(e)` — non-NULL count.
    Count,
    /// `MAX(e)`
    Max,
}

impl AggFunc {
    /// Resolve by (lowercase) name; `COUNT(*)` is resolved by the binder.
    pub fn by_name(name: &str) -> Option<AggFunc> {
        Some(match name {
            "count" => AggFunc::Count,
            "max" => AggFunc::Max,
            _ => return None,
        })
    }
}

/// A bound scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarExpr {
    /// Input column by offset.
    Column(usize),
    /// Constant.
    Literal(Value),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<ScalarExpr>,
        /// Right operand.
        right: Box<ScalarExpr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<ScalarExpr>,
    },
    /// Scalar function call.
    Call {
        /// Function.
        func: ScalarFunc,
        /// Arguments.
        args: Vec<ScalarExpr>,
    },
    /// `IS [NOT] NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<ScalarExpr>,
        /// Negated form.
        negated: bool,
    },
    /// `BETWEEN`.
    Between {
        /// Tested expression.
        expr: Box<ScalarExpr>,
        /// Lower bound.
        low: Box<ScalarExpr>,
        /// Upper bound.
        high: Box<ScalarExpr>,
    },
    /// `IN (...)`.
    InList {
        /// Tested expression.
        expr: Box<ScalarExpr>,
        /// Candidates.
        list: Vec<ScalarExpr>,
    },
    /// `LIKE`.
    Like {
        /// Tested expression.
        expr: Box<ScalarExpr>,
        /// Pattern.
        pattern: Box<ScalarExpr>,
    },
}

impl ScalarExpr {
    /// Column shorthand.
    pub fn col(i: usize) -> ScalarExpr {
        ScalarExpr::Column(i)
    }

    /// Literal shorthand.
    pub fn lit(v: impl Into<Value>) -> ScalarExpr {
        ScalarExpr::Literal(v.into())
    }

    /// Collect all referenced column offsets.
    pub fn columns_used(&self, out: &mut Vec<usize>) {
        match self {
            ScalarExpr::Column(i) => out.push(*i),
            ScalarExpr::Literal(_) => {}
            ScalarExpr::Binary { left, right, .. } => {
                left.columns_used(out);
                right.columns_used(out);
            }
            ScalarExpr::Unary { expr, .. } => expr.columns_used(out),
            ScalarExpr::Call { args, .. } => {
                for a in args {
                    a.columns_used(out);
                }
            }
            ScalarExpr::IsNull { expr, .. } => expr.columns_used(out),
            ScalarExpr::Between {
                expr, low, high, ..
            } => {
                expr.columns_used(out);
                low.columns_used(out);
                high.columns_used(out);
            }
            ScalarExpr::InList { expr, list, .. } => {
                expr.columns_used(out);
                for e in list {
                    e.columns_used(out);
                }
            }
            ScalarExpr::Like { expr, pattern, .. } => {
                expr.columns_used(out);
                pattern.columns_used(out);
            }
        }
    }

    /// Rewrite column offsets through `map` (old offset → new offset).
    /// Returns `None` if a referenced column is absent from the map.
    pub fn remap(&self, map: &dyn Fn(usize) -> Option<usize>) -> Option<ScalarExpr> {
        Some(match self {
            ScalarExpr::Column(i) => ScalarExpr::Column(map(*i)?),
            ScalarExpr::Literal(v) => ScalarExpr::Literal(v.clone()),
            ScalarExpr::Binary { op, left, right } => ScalarExpr::Binary {
                op: *op,
                left: Box::new(left.remap(map)?),
                right: Box::new(right.remap(map)?),
            },
            ScalarExpr::Unary { op, expr } => ScalarExpr::Unary {
                op: *op,
                expr: Box::new(expr.remap(map)?),
            },
            ScalarExpr::Call { func, args } => ScalarExpr::Call {
                func: *func,
                args: args.iter().map(|a| a.remap(map)).collect::<Option<_>>()?,
            },
            ScalarExpr::IsNull { expr, negated } => ScalarExpr::IsNull {
                expr: Box::new(expr.remap(map)?),
                negated: *negated,
            },
            ScalarExpr::Between { expr, low, high } => ScalarExpr::Between {
                expr: Box::new(expr.remap(map)?),
                low: Box::new(low.remap(map)?),
                high: Box::new(high.remap(map)?),
            },
            ScalarExpr::InList { expr, list } => ScalarExpr::InList {
                expr: Box::new(expr.remap(map)?),
                list: list.iter().map(|e| e.remap(map)).collect::<Option<_>>()?,
            },
            ScalarExpr::Like { expr, pattern } => ScalarExpr::Like {
                expr: Box::new(expr.remap(map)?),
                pattern: Box::new(pattern.remap(map)?),
            },
        })
    }

    /// Evaluate against a row.
    pub fn eval(&self, row: &Row) -> Result<Value> {
        match self {
            ScalarExpr::Column(i) => row
                .get(*i)
                .cloned()
                .ok_or_else(|| DbError::Runtime(format!("column offset {i} out of range"))),
            ScalarExpr::Literal(v) => Ok(v.clone()),
            ScalarExpr::Binary { op, left, right } => eval_binary(*op, left, right, row),
            ScalarExpr::Unary { op, expr } => {
                let v = expr.eval(row)?;
                match op {
                    UnOp::Not => Ok(match value_to_bool(&v) {
                        None => Value::Null,
                        Some(b) => Value::Bool(!b),
                    }),
                    UnOp::Neg => match v {
                        Value::Null => Ok(Value::Null),
                        Value::Int(i) => Ok(Value::Int(-i)),
                        Value::Float(f) => Ok(Value::Float(-f)),
                        other => Err(DbError::Type(format!("cannot negate {other}"))),
                    },
                }
            }
            ScalarExpr::Call { func, args } => eval_call(*func, args, row),
            ScalarExpr::IsNull { expr, negated } => {
                let isnull = expr.eval(row)?.is_null();
                Ok(Value::Bool(isnull != *negated))
            }
            ScalarExpr::Between { expr, low, high } => {
                let v = expr.eval(row)?;
                let lo = low.eval(row)?;
                let hi = high.eval(row)?;
                Ok(match (v.sql_cmp(&lo), v.sql_cmp(&hi)) {
                    (Some(a), Some(b)) => {
                        Value::Bool(a != Ordering::Less && b != Ordering::Greater)
                    }
                    _ => Value::Null,
                })
            }
            ScalarExpr::InList { expr, list } => {
                let v = expr.eval(row)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let mut saw_null = false;
                for cand in list {
                    let c = cand.eval(row)?;
                    match v.sql_cmp(&c) {
                        Some(Ordering::Equal) => return Ok(Value::Bool(true)),
                        None => saw_null = true,
                        _ => {}
                    }
                }
                Ok(if saw_null {
                    Value::Null
                } else {
                    Value::Bool(false)
                })
            }
            ScalarExpr::Like { expr, pattern } => {
                let v = expr.eval(row)?;
                let p = pattern.eval(row)?;
                match (v, p) {
                    (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                    (Value::Text(s), Value::Text(pat)) => Ok(Value::Bool(like_match(&s, &pat))),
                    (a, b) => Err(DbError::Type(format!("LIKE expects text, got {a} / {b}"))),
                }
            }
        }
    }
}

fn eval_binary(op: BinOp, left: &ScalarExpr, right: &ScalarExpr, row: &Row) -> Result<Value> {
    // Short-circuit logic operators with Kleene semantics.
    if matches!(op, BinOp::And | BinOp::Or) {
        let l = value_to_bool(&left.eval(row)?);
        match (op, l) {
            (BinOp::And, Some(false)) => return Ok(Value::Bool(false)),
            (BinOp::Or, Some(true)) => return Ok(Value::Bool(true)),
            _ => {}
        }
        let r = value_to_bool(&right.eval(row)?);
        return Ok(match (op, l, r) {
            (BinOp::And, Some(true), Some(b)) => Value::Bool(b),
            (BinOp::And, Some(b), Some(true)) => Value::Bool(b),
            (BinOp::And, _, Some(false)) => Value::Bool(false),
            (BinOp::Or, Some(false), Some(b)) => Value::Bool(b),
            (BinOp::Or, Some(b), Some(false)) => Value::Bool(b),
            (BinOp::Or, _, Some(true)) => Value::Bool(true),
            _ => Value::Null,
        });
    }
    let l = left.eval(row)?;
    let r = right.eval(row)?;
    match op {
        BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => {
            Ok(match l.sql_cmp(&r) {
                None => Value::Null,
                Some(ord) => Value::Bool(match op {
                    BinOp::Eq => ord == Ordering::Equal,
                    BinOp::NotEq => ord != Ordering::Equal,
                    BinOp::Lt => ord == Ordering::Less,
                    BinOp::LtEq => ord != Ordering::Greater,
                    BinOp::Gt => ord == Ordering::Greater,
                    // GtEq; the outer arm admits no other operator.
                    _ => ord != Ordering::Less,
                }),
            })
        }
        BinOp::Add | BinOp::Sub => arith(op, l, r),
        BinOp::Concat => match (l, r) {
            (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
            (a, b) => Ok(Value::Text(format!("{a}{b}"))),
        },
        // Handled by the short-circuit path above; reaching here would be
        // an evaluator bug, reported as an error rather than a panic.
        BinOp::And | BinOp::Or => Err(DbError::Runtime(format!(
            "logic operator {op:?} fell through short-circuit"
        ))),
    }
}

fn arith(op: BinOp, l: Value, r: Value) -> Result<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    match (&l, &r) {
        (Value::Int(a), Value::Int(b)) => {
            let a = *a;
            let b = *b;
            Ok(Value::Int(match op {
                BinOp::Add => a.wrapping_add(b),
                BinOp::Sub => a.wrapping_sub(b),
                other => {
                    return Err(DbError::Runtime(format!(
                        "not an arithmetic operator: {other:?}"
                    )))
                }
            }))
        }
        _ => {
            let a = l
                .as_float()
                .ok_or_else(|| DbError::Type(format!("arithmetic on {l}")))?;
            let b = r
                .as_float()
                .ok_or_else(|| DbError::Type(format!("arithmetic on {r}")))?;
            Ok(Value::Float(match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                other => {
                    return Err(DbError::Runtime(format!(
                        "not an arithmetic operator: {other:?}"
                    )))
                }
            }))
        }
    }
}

fn eval_call(func: ScalarFunc, args: &[ScalarExpr], row: &Row) -> Result<Value> {
    // Checked access: the binder enforces call arity, but an evaluator
    // reached with a hand-built plan must error, not panic.
    let arg = args
        .first()
        .ok_or_else(|| DbError::Runtime(format!("{func:?} called with no arguments")))?
        .eval(row)?;
    match func {
        ScalarFunc::Num => Ok(match arg {
            v @ (Value::Int(_) | Value::Float(_)) => v,
            Value::Text(s) => s
                .trim()
                .parse::<i64>()
                .map(Value::Int)
                .or_else(|_| s.trim().parse::<f64>().map(Value::Float))
                .unwrap_or(Value::Null),
            _ => Value::Null,
        }),
    }
}

/// SQL truthiness: NULL → None, BOOL → its value, numbers → nonzero.
pub fn value_to_bool(v: &Value) -> Option<bool> {
    match v {
        Value::Null => None,
        Value::Bool(b) => Some(*b),
        Value::Int(i) => Some(*i != 0),
        Value::Float(f) => Some(*f != 0.0),
        Value::Text(_) => Some(true),
    }
}

/// `LIKE` pattern match: `%` any run, `_` one char. Case-sensitive.
pub fn like_match(s: &str, pattern: &str) -> bool {
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    like_rec(&s, &p)
}

fn like_rec(s: &[char], p: &[char]) -> bool {
    match p.first() {
        None => s.is_empty(),
        Some('%') => {
            // Collapse consecutive %.
            let rest = &p[1..];
            (0..=s.len()).any(|k| like_rec(&s[k..], rest))
        }
        Some('_') => !s.is_empty() && like_rec(&s[1..], &p[1..]),
        Some(c) => s.first() == Some(c) && like_rec(&s[1..], &p[1..]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty() -> Row {
        Vec::new()
    }

    #[test]
    fn comparisons_and_null_logic() {
        let e = ScalarExpr::Binary {
            op: BinOp::Lt,
            left: Box::new(ScalarExpr::lit(1i64)),
            right: Box::new(ScalarExpr::lit(2i64)),
        };
        assert_eq!(e.eval(&empty()).unwrap(), Value::Bool(true));

        let null_cmp = ScalarExpr::Binary {
            op: BinOp::Eq,
            left: Box::new(ScalarExpr::Literal(Value::Null)),
            right: Box::new(ScalarExpr::lit(2i64)),
        };
        assert_eq!(null_cmp.eval(&empty()).unwrap(), Value::Null);
    }

    #[test]
    fn kleene_and_or() {
        let null = || ScalarExpr::Literal(Value::Null);
        let t = || ScalarExpr::lit(true);
        let f = || ScalarExpr::lit(false);
        let and = |a: ScalarExpr, b: ScalarExpr| ScalarExpr::Binary {
            op: BinOp::And,
            left: Box::new(a),
            right: Box::new(b),
        };
        let or = |a: ScalarExpr, b: ScalarExpr| ScalarExpr::Binary {
            op: BinOp::Or,
            left: Box::new(a),
            right: Box::new(b),
        };
        assert_eq!(and(f(), null()).eval(&empty()).unwrap(), Value::Bool(false));
        assert_eq!(and(null(), f()).eval(&empty()).unwrap(), Value::Bool(false));
        assert_eq!(and(t(), null()).eval(&empty()).unwrap(), Value::Null);
        assert_eq!(or(t(), null()).eval(&empty()).unwrap(), Value::Bool(true));
        assert_eq!(or(null(), t()).eval(&empty()).unwrap(), Value::Bool(true));
        assert_eq!(or(f(), null()).eval(&empty()).unwrap(), Value::Null);
    }

    #[test]
    fn arithmetic_int_float_and_text() {
        let add = ScalarExpr::Binary {
            op: BinOp::Add,
            left: Box::new(ScalarExpr::lit(1i64)),
            right: Box::new(ScalarExpr::lit(2.5f64)),
        };
        assert_eq!(add.eval(&empty()).unwrap(), Value::Float(3.5));
        let on_text = ScalarExpr::Binary {
            op: BinOp::Sub,
            left: Box::new(ScalarExpr::lit("a")),
            right: Box::new(ScalarExpr::lit(1i64)),
        };
        assert!(matches!(on_text.eval(&empty()), Err(DbError::Type(_))));
    }

    #[test]
    fn between_and_inlist() {
        let between = ScalarExpr::Between {
            expr: Box::new(ScalarExpr::lit(5i64)),
            low: Box::new(ScalarExpr::lit(1i64)),
            high: Box::new(ScalarExpr::lit(10i64)),
        };
        assert_eq!(between.eval(&empty()).unwrap(), Value::Bool(true));
        let miss = ScalarExpr::InList {
            expr: Box::new(ScalarExpr::lit(3i64)),
            list: vec![ScalarExpr::lit(1i64), ScalarExpr::lit(2i64)],
        };
        assert_eq!(miss.eval(&empty()).unwrap(), Value::Bool(false));
        // NULL in the list makes IN unknown when no candidate matches.
        let with_null = ScalarExpr::InList {
            expr: Box::new(ScalarExpr::lit(3i64)),
            list: vec![ScalarExpr::lit(1i64), ScalarExpr::Literal(Value::Null)],
        };
        assert_eq!(with_null.eval(&empty()).unwrap(), Value::Null);
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("hello", "h%o"));
        assert!(like_match("hello", "_ello"));
        assert!(like_match("hello", "%"));
        assert!(!like_match("hello", "h_o"));
        assert!(like_match("a/b/c", "a/%/c"));
        assert!(!like_match("", "_"));
        assert!(like_match("", "%"));
    }

    #[test]
    fn num_parses_text() {
        let call = |args| ScalarExpr::Call {
            func: ScalarFunc::Num,
            args,
        };
        assert_eq!(
            call(vec![ScalarExpr::lit("42")]).eval(&empty()).unwrap(),
            Value::Int(42)
        );
        assert_eq!(
            call(vec![ScalarExpr::lit(" 3.5 ")]).eval(&empty()).unwrap(),
            Value::Float(3.5)
        );
        assert_eq!(
            call(vec![ScalarExpr::lit("abc")]).eval(&empty()).unwrap(),
            Value::Null
        );
        assert_eq!(
            call(vec![ScalarExpr::lit(7i64)]).eval(&empty()).unwrap(),
            Value::Int(7)
        );
        assert_eq!(
            call(vec![ScalarExpr::Literal(Value::Null)])
                .eval(&empty())
                .unwrap(),
            Value::Null
        );
    }

    #[test]
    fn remap_and_columns_used() {
        let e = ScalarExpr::Binary {
            op: BinOp::Eq,
            left: Box::new(ScalarExpr::col(3)),
            right: Box::new(ScalarExpr::col(5)),
        };
        let mut used = Vec::new();
        e.columns_used(&mut used);
        assert_eq!(used, vec![3, 5]);
        let shifted = e.remap(&|i| Some(i - 3)).unwrap();
        let mut used2 = Vec::new();
        shifted.columns_used(&mut used2);
        assert_eq!(used2, vec![0, 2]);
        assert!(e.remap(&|i| if i == 3 { Some(0) } else { None }).is_none());
    }
}
