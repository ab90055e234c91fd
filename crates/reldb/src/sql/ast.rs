//! SQL abstract syntax tree.

use crate::value::{DataType, Value};

/// A top-level SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `CREATE TABLE`.
    CreateTable {
        /// Table name.
        name: String,
        /// Column definitions.
        columns: Vec<ColumnDef>,
        /// `IF NOT EXISTS` given.
        if_not_exists: bool,
    },
    /// `CREATE [UNIQUE] INDEX name ON table (cols)`.
    CreateIndex {
        /// Index name.
        name: String,
        /// Table the index is on.
        table: String,
        /// Indexed column names.
        columns: Vec<String>,
        /// Uniqueness constraint.
        unique: bool,
    },
    /// `INSERT INTO table [(cols)] VALUES (..), (..)`.
    Insert {
        /// Target table.
        table: String,
        /// Optional explicit column list.
        columns: Option<Vec<String>>,
        /// Literal rows.
        rows: Vec<Vec<Expr>>,
    },
    /// `SELECT ...`.
    Select(Box<SelectStmt>),
    /// `DELETE FROM table [WHERE ..]`.
    Delete {
        /// Target table.
        table: String,
        /// Row filter.
        predicate: Option<Expr>,
    },
    /// `UPDATE table SET c = e, .. [WHERE ..]`.
    Update {
        /// Target table.
        table: String,
        /// Assignments.
        assignments: Vec<(String, Expr)>,
        /// Row filter.
        predicate: Option<Expr>,
    },
    /// `EXPLAIN [ANALYZE] <select>` — returns the physical plan as text
    /// rows; with ANALYZE the query also runs and each operator reports
    /// estimated vs. actual rows plus its runtime counters.
    Explain {
        /// True for `EXPLAIN ANALYZE`: execute and report actuals.
        analyze: bool,
        /// The explained statement (must be a SELECT).
        stmt: Box<Statement>,
    },
}

/// Column definition in CREATE TABLE.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    /// Column name.
    pub name: String,
    /// Declared type.
    pub ty: DataType,
    /// NOT NULL given.
    pub not_null: bool,
    /// PRIMARY KEY given (implies a unique index).
    pub primary_key: bool,
}

/// A SELECT statement (one arm of a UNION chain).
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// `DISTINCT` given.
    pub distinct: bool,
    /// Projection list.
    pub projections: Vec<SelectItem>,
    /// FROM clause (None = scalar select, e.g. `SELECT 1+1`).
    pub from: Option<TableRef>,
    /// WHERE predicate.
    pub predicate: Option<Expr>,
    /// ORDER BY expressions with ascending flags.
    pub order_by: Vec<(Expr, bool)>,
    /// LIMIT count.
    pub limit: Option<u64>,
    /// Chained `UNION ALL` arm.
    pub union_all: Option<Box<SelectStmt>>,
}

impl SelectStmt {
    /// An empty SELECT skeleton.
    pub fn empty() -> SelectStmt {
        SelectStmt {
            distinct: false,
            projections: Vec::new(),
            from: None,
            predicate: None,
            order_by: Vec::new(),
            limit: None,
            union_all: None,
        }
    }
}

/// One projection item.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// An expression with an optional alias.
    Expr {
        /// Projected expression.
        expr: Expr,
        /// `AS alias`.
        alias: Option<String>,
    },
}

/// A FROM-clause item.
#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    /// Base table with optional alias.
    Table {
        /// Table name.
        name: String,
        /// Alias.
        alias: Option<String>,
    },
    /// A join.
    Join {
        /// Left input.
        left: Box<TableRef>,
        /// Right input.
        right: Box<TableRef>,
        /// Join kind.
        kind: JoinKind,
        /// ON condition (None only for CROSS).
        on: Option<Expr>,
    },
}

/// Join kinds in the implemented subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// INNER JOIN.
    Inner,
    /// LEFT OUTER JOIN.
    Left,
    /// CROSS JOIN.
    Cross,
}

/// Scalar/boolean expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference, optionally qualified.
    Column {
        /// Table name or alias qualifier.
        qualifier: Option<String>,
        /// Column name.
        name: String,
    },
    /// Literal value.
    Literal(Value),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Function call (scalar or aggregate, resolved at planning).
    Function {
        /// Function name, lowercase.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// `COUNT(*)` argument marker.
    Star,
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<Expr>,
        /// `IS NOT NULL`.
        negated: bool,
    },
    /// `expr BETWEEN low AND high`.
    Between {
        /// Tested expression.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        low: Box<Expr>,
        /// Upper bound (inclusive).
        high: Box<Expr>,
    },
    /// `expr IN (v, ...)`.
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// Candidate list.
        list: Vec<Expr>,
    },
    /// `expr LIKE pattern` (`%` and `_` wildcards).
    Like {
        /// Tested expression.
        expr: Box<Expr>,
        /// Pattern expression.
        pattern: Box<Expr>,
    },
}

impl Expr {
    /// Column shorthand.
    pub fn col(name: &str) -> Expr {
        Expr::Column {
            qualifier: None,
            name: name.to_string(),
        }
    }

    /// Qualified column shorthand.
    pub fn qcol(q: &str, name: &str) -> Expr {
        Expr::Column {
            qualifier: Some(q.to_string()),
            name: name.to_string(),
        }
    }

    /// Literal shorthand.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// Binary op shorthand.
    pub fn bin(op: BinOp, l: Expr, r: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Box::new(l),
            right: Box::new(r),
        }
    }

    /// `AND` of two expressions.
    pub fn and(l: Expr, r: Expr) -> Expr {
        Expr::bin(BinOp::And, l, r)
    }

    /// `self = other`.
    pub fn eq(self, other: Expr) -> Expr {
        Expr::bin(BinOp::Eq, self, other)
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `=`
    Eq,
    /// `<>`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `AND`
    And,
    /// `OR`
    Or,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `||`
    Concat,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// `NOT`
    Not,
    /// `-`
    Neg,
}
