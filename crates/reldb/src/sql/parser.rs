//! Recursive-descent SQL parser.

use crate::error::{DbError, Result};
use crate::sql::ast::*;
use crate::sql::lexer::{tokenize, Symbol, Token};
use crate::value::{DataType, Value};

/// Parse one SQL statement (a trailing `;` is allowed).
pub fn parse_statement(sql: &str) -> Result<Statement> {
    let tokens = tokenize(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.statement()?;
    p.eat_symbol(Symbol::Semicolon);
    if !p.at_end() {
        return Err(p.err("trailing tokens after statement"));
    }
    Ok(stmt)
}

/// Parse a semicolon-separated script.
pub fn parse_script(sql: &str) -> Result<Vec<Statement>> {
    let tokens = tokenize(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let mut out = Vec::new();
    loop {
        while p.eat_symbol(Symbol::Semicolon) {}
        if p.at_end() {
            return Ok(out);
        }
        out.push(p.statement()?);
        if !p.at_end() && !p.peek_symbol(Symbol::Semicolon) {
            return Err(p.err("expected ';' between statements"));
        }
    }
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: &str) -> DbError {
        match self.peek() {
            Some(t) => DbError::Syntax(format!("{msg} (at {t:?})")),
            None => DbError::Syntax(format!("{msg} (at end of input)")),
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().map(|t| t.is_kw(kw)).unwrap_or(false) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(&format!("expected {kw}")))
        }
    }

    fn peek_kw(&self, kw: &str) -> bool {
        self.peek().map(|t| t.is_kw(kw)).unwrap_or(false)
    }

    fn peek_symbol(&self, s: Symbol) -> bool {
        matches!(self.peek(), Some(Token::Symbol(x)) if *x == s)
    }

    fn eat_symbol(&mut self, s: Symbol) -> bool {
        if self.peek_symbol(s) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_symbol(&mut self, s: Symbol) -> Result<()> {
        if self.eat_symbol(s) {
            Ok(())
        } else {
            Err(self.err(&format!("expected {s:?}")))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.bump() {
            Some(Token::Ident(s)) => Ok(s.to_ascii_lowercase()),
            Some(Token::QuotedIdent(s)) => Ok(s),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err("expected identifier"))
            }
        }
    }

    // ---- statements ----------------------------------------------------

    fn statement(&mut self) -> Result<Statement> {
        if self.eat_kw("explain") {
            let analyze = self.eat_kw("analyze");
            return Ok(Statement::Explain {
                analyze,
                stmt: Box::new(self.statement()?),
            });
        }
        if self.peek_kw("select") {
            return Ok(Statement::Select(Box::new(self.select()?)));
        }
        if self.eat_kw("create") {
            return self.create();
        }
        if self.eat_kw("insert") {
            return self.insert();
        }
        if self.eat_kw("delete") {
            self.expect_kw("from")?;
            let table = self.ident()?;
            let predicate = if self.eat_kw("where") {
                Some(self.expr()?)
            } else {
                None
            };
            return Ok(Statement::Delete { table, predicate });
        }
        if self.eat_kw("update") {
            let table = self.ident()?;
            self.expect_kw("set")?;
            let mut assignments = Vec::new();
            loop {
                let col = self.ident()?;
                self.expect_symbol(Symbol::Eq)?;
                assignments.push((col, self.expr()?));
                if !self.eat_symbol(Symbol::Comma) {
                    break;
                }
            }
            let predicate = if self.eat_kw("where") {
                Some(self.expr()?)
            } else {
                None
            };
            return Ok(Statement::Update {
                table,
                assignments,
                predicate,
            });
        }
        Err(self.err("expected a statement"))
    }

    fn create(&mut self) -> Result<Statement> {
        let unique = self.eat_kw("unique");
        if self.eat_kw("index") {
            let name = self.ident()?;
            self.expect_kw("on")?;
            let table = self.ident()?;
            self.expect_symbol(Symbol::LParen)?;
            let mut columns = vec![self.ident()?];
            while self.eat_symbol(Symbol::Comma) {
                columns.push(self.ident()?);
            }
            self.expect_symbol(Symbol::RParen)?;
            return Ok(Statement::CreateIndex {
                name,
                table,
                columns,
                unique,
            });
        }
        if unique {
            return Err(self.err("expected INDEX after UNIQUE"));
        }
        self.expect_kw("table")?;
        let if_not_exists = self.eat_kw("if") && {
            self.expect_kw("not")?;
            self.expect_kw("exists")?;
            true
        };
        let name = self.ident()?;
        self.expect_symbol(Symbol::LParen)?;
        let mut columns = Vec::new();
        loop {
            let col_name = self.ident()?;
            let ty = self.data_type()?;
            let mut not_null = false;
            let mut primary_key = false;
            loop {
                if self.eat_kw("not") {
                    self.expect_kw("null")?;
                    not_null = true;
                } else if self.eat_kw("primary") {
                    self.expect_kw("key")?;
                    primary_key = true;
                    not_null = true;
                } else {
                    break;
                }
            }
            columns.push(ColumnDef {
                name: col_name,
                ty,
                not_null,
                primary_key,
            });
            if !self.eat_symbol(Symbol::Comma) {
                break;
            }
        }
        self.expect_symbol(Symbol::RParen)?;
        Ok(Statement::CreateTable {
            name,
            columns,
            if_not_exists,
        })
    }

    fn data_type(&mut self) -> Result<DataType> {
        let t = self.ident()?;
        match t.as_str() {
            "int" | "integer" | "bigint" => Ok(DataType::Int),
            "float" | "real" | "double" => Ok(DataType::Float),
            "text" | "varchar" | "char" | "string" => {
                // Optional length, ignored: VARCHAR(100).
                if self.eat_symbol(Symbol::LParen) {
                    self.bump();
                    self.expect_symbol(Symbol::RParen)?;
                }
                Ok(DataType::Text)
            }
            "bool" | "boolean" => Ok(DataType::Bool),
            other => Err(DbError::Syntax(format!("unknown type {other:?}"))),
        }
    }

    fn insert(&mut self) -> Result<Statement> {
        self.expect_kw("into")?;
        let table = self.ident()?;
        let columns = if self.eat_symbol(Symbol::LParen) {
            let mut cols = vec![self.ident()?];
            while self.eat_symbol(Symbol::Comma) {
                cols.push(self.ident()?);
            }
            self.expect_symbol(Symbol::RParen)?;
            Some(cols)
        } else {
            None
        };
        self.expect_kw("values")?;
        let mut rows = Vec::new();
        loop {
            self.expect_symbol(Symbol::LParen)?;
            let mut row = vec![self.expr()?];
            while self.eat_symbol(Symbol::Comma) {
                row.push(self.expr()?);
            }
            self.expect_symbol(Symbol::RParen)?;
            rows.push(row);
            if !self.eat_symbol(Symbol::Comma) {
                break;
            }
        }
        Ok(Statement::Insert {
            table,
            columns,
            rows,
        })
    }

    // ---- select ----------------------------------------------------------

    fn select(&mut self) -> Result<SelectStmt> {
        self.expect_kw("select")?;
        let mut stmt = SelectStmt::empty();
        stmt.distinct = self.eat_kw("distinct");
        loop {
            stmt.projections.push(self.select_item()?);
            if !self.eat_symbol(Symbol::Comma) {
                break;
            }
        }
        if self.eat_kw("from") {
            stmt.from = Some(self.table_ref()?);
        }
        if self.eat_kw("where") {
            stmt.predicate = Some(self.expr()?);
        }
        if self.eat_kw("union") {
            self.expect_kw("all")?;
            stmt.union_all = Some(Box::new(self.select()?));
            return Ok(stmt);
        }
        if self.eat_kw("order") {
            self.expect_kw("by")?;
            loop {
                let e = self.expr()?;
                let asc = if self.eat_kw("desc") {
                    false
                } else {
                    self.eat_kw("asc");
                    true
                };
                stmt.order_by.push((e, asc));
                if !self.eat_symbol(Symbol::Comma) {
                    break;
                }
            }
        }
        if self.eat_kw("limit") {
            stmt.limit = Some(self.unsigned()?);
        }
        Ok(stmt)
    }

    fn unsigned(&mut self) -> Result<u64> {
        match self.bump() {
            Some(Token::Number(n)) => n
                .parse()
                .map_err(|_| DbError::Syntax(format!("expected unsigned integer, got {n:?}"))),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err("expected unsigned integer"))
            }
        }
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        if self.eat_symbol(Symbol::Star) {
            return Ok(SelectItem::Wildcard);
        }
        let expr = self.expr()?;
        // `AS alias` or a bare non-reserved identifier.
        let has_alias =
            self.eat_kw("as") || matches!(self.peek(), Some(Token::Ident(s)) if !is_reserved(s));
        let alias = if has_alias { Some(self.ident()?) } else { None };
        Ok(SelectItem::Expr { expr, alias })
    }

    fn table_ref(&mut self) -> Result<TableRef> {
        let mut left = self.table_factor()?;
        loop {
            let kind = if self.eat_kw("inner") {
                self.expect_kw("join")?;
                JoinKind::Inner
            } else if self.eat_kw("left") {
                self.eat_kw("outer");
                self.expect_kw("join")?;
                JoinKind::Left
            } else if self.eat_kw("cross") {
                self.expect_kw("join")?;
                JoinKind::Cross
            } else if self.eat_kw("join") {
                JoinKind::Inner
            } else if self.eat_symbol(Symbol::Comma) {
                JoinKind::Cross
            } else {
                return Ok(left);
            };
            let right = self.table_factor()?;
            let on = if kind == JoinKind::Cross {
                None
            } else {
                self.expect_kw("on")?;
                Some(self.expr()?)
            };
            left = TableRef::Join {
                left: Box::new(left),
                right: Box::new(right),
                kind,
                on,
            };
        }
    }

    fn table_factor(&mut self) -> Result<TableRef> {
        let name = self.ident()?;
        let has_alias =
            self.eat_kw("as") || matches!(self.peek(), Some(Token::Ident(s)) if !is_reserved(s));
        let alias = if has_alias { Some(self.ident()?) } else { None };
        Ok(TableRef::Table { name, alias })
    }

    // ---- expressions -----------------------------------------------------

    fn expr(&mut self) -> Result<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut e = self.and_expr()?;
        while self.eat_kw("or") {
            e = Expr::bin(BinOp::Or, e, self.and_expr()?);
        }
        Ok(e)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut e = self.not_expr()?;
        while self.eat_kw("and") {
            e = Expr::bin(BinOp::And, e, self.not_expr()?);
        }
        Ok(e)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat_kw("not") {
            let inner = self.not_expr()?;
            return Ok(Expr::Unary {
                op: UnOp::Not,
                expr: Box::new(inner),
            });
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<Expr> {
        let e = self.additive()?;
        // Postfix predicates.
        if self.eat_kw("is") {
            let negated = self.eat_kw("not");
            self.expect_kw("null")?;
            return Ok(Expr::IsNull {
                expr: Box::new(e),
                negated,
            });
        }
        if self.eat_kw("between") {
            let low = self.additive()?;
            self.expect_kw("and")?;
            let high = self.additive()?;
            return Ok(Expr::Between {
                expr: Box::new(e),
                low: Box::new(low),
                high: Box::new(high),
            });
        }
        if self.eat_kw("in") {
            self.expect_symbol(Symbol::LParen)?;
            let mut list = vec![self.expr()?];
            while self.eat_symbol(Symbol::Comma) {
                list.push(self.expr()?);
            }
            self.expect_symbol(Symbol::RParen)?;
            return Ok(Expr::InList {
                expr: Box::new(e),
                list,
            });
        }
        if self.eat_kw("like") {
            let pat = self.additive()?;
            return Ok(Expr::Like {
                expr: Box::new(e),
                pattern: Box::new(pat),
            });
        }
        let op = match self.peek() {
            Some(Token::Symbol(Symbol::Eq)) => Some(BinOp::Eq),
            Some(Token::Symbol(Symbol::NotEq)) => Some(BinOp::NotEq),
            Some(Token::Symbol(Symbol::Lt)) => Some(BinOp::Lt),
            Some(Token::Symbol(Symbol::LtEq)) => Some(BinOp::LtEq),
            Some(Token::Symbol(Symbol::Gt)) => Some(BinOp::Gt),
            Some(Token::Symbol(Symbol::GtEq)) => Some(BinOp::GtEq),
            _ => None,
        };
        match op {
            Some(op) => {
                self.pos += 1;
                let rhs = self.additive()?;
                Ok(Expr::bin(op, e, rhs))
            }
            None => Ok(e),
        }
    }

    fn additive(&mut self) -> Result<Expr> {
        let mut e = self.unary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Symbol(Symbol::Plus)) => BinOp::Add,
                Some(Token::Symbol(Symbol::Minus)) => BinOp::Sub,
                Some(Token::Symbol(Symbol::Concat)) => BinOp::Concat,
                _ => return Ok(e),
            };
            self.pos += 1;
            e = Expr::bin(op, e, self.unary()?);
        }
    }

    fn unary(&mut self) -> Result<Expr> {
        if self.eat_symbol(Symbol::Minus) {
            let inner = self.unary()?;
            return Ok(Expr::Unary {
                op: UnOp::Neg,
                expr: Box::new(inner),
            });
        }
        if self.eat_symbol(Symbol::Plus) {
            return self.unary();
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr> {
        match self.bump() {
            Some(Token::Number(n)) => {
                if n.contains('.') || n.contains('e') || n.contains('E') {
                    n.parse::<f64>()
                        .map(|f| Expr::Literal(Value::Float(f)))
                        .map_err(|_| DbError::Syntax(format!("bad number {n:?}")))
                } else {
                    n.parse::<i64>()
                        .map(|i| Expr::Literal(Value::Int(i)))
                        .map_err(|_| DbError::Syntax(format!("bad number {n:?}")))
                }
            }
            Some(Token::String(s)) => Ok(Expr::Literal(Value::Text(s))),
            Some(Token::Symbol(Symbol::LParen)) => {
                let e = self.expr()?;
                self.expect_symbol(Symbol::RParen)?;
                Ok(e)
            }
            Some(Token::Ident(id)) => self.ident_expr(id),
            Some(Token::QuotedIdent(id)) => self.column_tail(id),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err("expected expression"))
            }
        }
    }

    fn ident_expr(&mut self, id: String) -> Result<Expr> {
        let lower = id.to_ascii_lowercase();
        match lower.as_str() {
            "null" => return Ok(Expr::Literal(Value::Null)),
            "true" => return Ok(Expr::Literal(Value::Bool(true))),
            "false" => return Ok(Expr::Literal(Value::Bool(false))),
            _ if is_reserved(&lower) => {
                self.pos = self.pos.saturating_sub(1);
                return Err(self.err("reserved word used as expression"));
            }
            _ => {}
        }
        if self.eat_symbol(Symbol::LParen) {
            // Function call.
            let mut args = Vec::new();
            if !self.peek_symbol(Symbol::RParen) {
                loop {
                    if self.eat_symbol(Symbol::Star) {
                        args.push(Expr::Star);
                    } else {
                        args.push(self.expr()?);
                    }
                    if !self.eat_symbol(Symbol::Comma) {
                        break;
                    }
                }
            }
            self.expect_symbol(Symbol::RParen)?;
            return Ok(Expr::Function { name: lower, args });
        }
        self.column_tail(lower)
    }

    fn column_tail(&mut self, first: String) -> Result<Expr> {
        if self.eat_symbol(Symbol::Dot) {
            let col = self.ident()?;
            Ok(Expr::Column {
                qualifier: Some(first),
                name: col,
            })
        } else {
            Ok(Expr::Column {
                qualifier: None,
                name: first,
            })
        }
    }
}

/// Words that never bind as an alias or a bare expression. `group`,
/// `having`, `offset` and `drop` name clauses outside the subset; they stay
/// reserved so that `FROM t GROUP BY g` or `LIMIT 2 OFFSET 1` is a syntax
/// error instead of an alias or a silently dropped clause.
fn is_reserved(word: &str) -> bool {
    const RESERVED: &[&str] = &[
        "select", "from", "where", "group", "by", "having", "order", "limit", "offset", "union",
        "all", "distinct", "as", "join", "inner", "left", "right", "outer", "cross", "on", "and",
        "or", "not", "in", "between", "like", "is", "null", "insert", "into", "values", "update",
        "set", "delete", "create", "drop", "table", "index", "unique", "primary", "key", "if",
        "exists", "explain", "asc", "desc", "true", "false",
    ];
    RESERVED.contains(&word.to_ascii_lowercase().as_str())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_table_roundtrip() {
        let s = parse_statement(
            "CREATE TABLE edge (src INT NOT NULL, ord INT, label TEXT, tgt INT, val TEXT)",
        )
        .unwrap();
        match s {
            Statement::CreateTable {
                name,
                columns,
                if_not_exists,
            } => {
                assert_eq!(name, "edge");
                assert_eq!(columns.len(), 5);
                assert!(columns[0].not_null);
                assert!(!columns[1].not_null);
                assert!(!if_not_exists);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn primary_key_flag() {
        let s = parse_statement("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)").unwrap();
        match s {
            Statement::CreateTable { columns, .. } => {
                assert!(columns[0].primary_key);
                assert!(columns[0].not_null);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn insert_multi_row() {
        let s = parse_statement("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')").unwrap();
        match s {
            Statement::Insert {
                table,
                columns,
                rows,
            } => {
                assert_eq!(table, "t");
                assert_eq!(columns.unwrap(), vec!["a", "b"]);
                assert_eq!(rows.len(), 2);
                assert_eq!(rows[1][1], Expr::Literal(Value::text("y")));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn select_with_everything() {
        let s = parse_statement(
            "SELECT DISTINCT t.a AS x, t.b FROM t WHERE t.b = 3 AND t.c LIKE 'p%' \
             ORDER BY x DESC LIMIT 10",
        )
        .unwrap();
        let Statement::Select(sel) = s else { panic!() };
        assert!(sel.distinct);
        assert_eq!(sel.projections.len(), 2);
        assert!(sel.predicate.is_some());
        assert_eq!(sel.order_by.len(), 1);
        assert!(!sel.order_by[0].1);
        assert_eq!(sel.limit, Some(10));
    }

    #[test]
    fn joins_left_deep() {
        let s = parse_statement("SELECT * FROM a JOIN b ON a.x = b.x LEFT JOIN c ON b.y = c.y")
            .unwrap();
        let Statement::Select(sel) = s else { panic!() };
        let TableRef::Join { kind, left, .. } = sel.from.unwrap() else {
            panic!()
        };
        assert_eq!(kind, JoinKind::Left);
        assert!(matches!(
            *left,
            TableRef::Join {
                kind: JoinKind::Inner,
                ..
            }
        ));
    }

    #[test]
    fn comma_join_is_cross() {
        let s = parse_statement("SELECT * FROM a, b WHERE a.x = b.x").unwrap();
        let Statement::Select(sel) = s else { panic!() };
        assert!(matches!(
            sel.from.unwrap(),
            TableRef::Join {
                kind: JoinKind::Cross,
                on: None,
                ..
            }
        ));
    }

    #[test]
    fn operator_precedence() {
        let Statement::Select(sel) = parse_statement("SELECT * FROM t WHERE a > b + 1").unwrap()
        else {
            panic!()
        };
        // Must parse as a > (b + 1).
        let Some(Expr::Binary {
            op: BinOp::Gt,
            right,
            ..
        }) = &sel.predicate
        else {
            panic!("{:?}", sel.predicate)
        };
        assert!(matches!(**right, Expr::Binary { op: BinOp::Add, .. }));
    }

    #[test]
    fn and_binds_tighter_than_or() {
        let Statement::Select(sel) =
            parse_statement("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3").unwrap()
        else {
            panic!()
        };
        let Expr::Binary { op: BinOp::Or, .. } = sel.predicate.unwrap() else {
            panic!("OR must be the top operator")
        };
    }

    #[test]
    fn between_in_is_not_null() {
        let Statement::Select(sel) = parse_statement(
            "SELECT * FROM t WHERE a BETWEEN 1 AND 5 AND b IN (1,2) AND c IS NOT NULL",
        )
        .unwrap() else {
            panic!()
        };
        let p = sel.predicate.unwrap();
        let s = format!("{p:?}");
        assert!(s.contains("Between"));
        assert!(s.contains("InList"));
        assert!(s.contains("IsNull"));
    }

    #[test]
    fn union_all_chains() {
        let Statement::Select(sel) =
            parse_statement("SELECT a FROM t UNION ALL SELECT b FROM u UNION ALL SELECT c FROM v")
                .unwrap()
        else {
            panic!()
        };
        let second = sel.union_all.unwrap();
        assert!(second.union_all.is_some());
    }

    #[test]
    fn explain_wraps() {
        let s = parse_statement("EXPLAIN SELECT * FROM t").unwrap();
        assert!(matches!(s, Statement::Explain { analyze: false, .. }));
        let s = parse_statement("EXPLAIN ANALYZE SELECT * FROM t").unwrap();
        assert!(matches!(s, Statement::Explain { analyze: true, .. }));
    }

    #[test]
    fn script_parsing() {
        let stmts = parse_script("CREATE TABLE t (a INT); INSERT INTO t VALUES (1);;").unwrap();
        assert_eq!(stmts.len(), 2);
    }

    #[test]
    fn errors_are_syntax() {
        assert!(matches!(
            parse_statement("SELEC 1"),
            Err(DbError::Syntax(_))
        ));
        assert!(matches!(
            parse_statement("SELECT FROM"),
            Err(DbError::Syntax(_))
        ));
        assert!(matches!(
            parse_statement("SELECT 1 extra garbage ,"),
            Err(DbError::Syntax(_))
        ));
    }

    #[test]
    fn update_and_delete() {
        let s = parse_statement("UPDATE t SET a = a + 1, b = 'x' WHERE c = 2").unwrap();
        match s {
            Statement::Update {
                assignments,
                predicate,
                ..
            } => {
                assert_eq!(assignments.len(), 2);
                assert!(predicate.is_some());
            }
            _ => unreachable!(),
        }
        let s = parse_statement("DELETE FROM t").unwrap();
        assert!(matches!(
            s,
            Statement::Delete {
                predicate: None,
                ..
            }
        ));
    }

    #[test]
    fn negative_numbers_and_nulls() {
        let Statement::Select(sel) = parse_statement("SELECT -3, NULL, -x").unwrap() else {
            panic!()
        };
        assert_eq!(sel.projections.len(), 3);
    }
}
