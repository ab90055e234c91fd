//! SQL tokenizer.

use crate::error::{DbError, Result};

/// A SQL token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Identifier or keyword (unquoted identifiers are kept verbatim; the
    /// parser matches keywords case-insensitively).
    Ident(String),
    /// `"quoted identifier"`.
    QuotedIdent(String),
    /// Numeric literal, `42` or `1.5`.
    Number(String),
    /// `'string literal'` with doubled-quote escaping resolved.
    String(String),
    /// Punctuation / operators.
    Symbol(Symbol),
}

/// Punctuation and operator tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Symbol {
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `;`
    Semicolon,
    /// `*`
    Star,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `=`
    Eq,
    /// `<>` or `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `||`
    Concat,
}

impl Token {
    /// Keyword check, case-insensitive, on unquoted identifiers only.
    pub fn is_kw(&self, kw: &str) -> bool {
        matches!(self, Token::Ident(s) if s.eq_ignore_ascii_case(kw))
    }
}

/// Tokenize SQL text.
pub fn tokenize(input: &str) -> Result<Vec<Token>> {
    let b = input.as_bytes();
    let mut i = 0;
    let mut out = Vec::new();
    while i < b.len() {
        let c = b[i];
        match c {
            b' ' | b'\t' | b'\r' | b'\n' => i += 1,
            b'-' if b.get(i + 1) == Some(&b'-') => {
                // Line comment.
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'(' => {
                out.push(Token::Symbol(Symbol::LParen));
                i += 1;
            }
            b')' => {
                out.push(Token::Symbol(Symbol::RParen));
                i += 1;
            }
            b',' => {
                out.push(Token::Symbol(Symbol::Comma));
                i += 1;
            }
            b'.' if !b.get(i + 1).map(u8::is_ascii_digit).unwrap_or(false) => {
                out.push(Token::Symbol(Symbol::Dot));
                i += 1;
            }
            b';' => {
                out.push(Token::Symbol(Symbol::Semicolon));
                i += 1;
            }
            b'*' => {
                out.push(Token::Symbol(Symbol::Star));
                i += 1;
            }
            b'+' => {
                out.push(Token::Symbol(Symbol::Plus));
                i += 1;
            }
            b'-' => {
                out.push(Token::Symbol(Symbol::Minus));
                i += 1;
            }
            b'=' => {
                out.push(Token::Symbol(Symbol::Eq));
                i += 1;
            }
            b'!' if b.get(i + 1) == Some(&b'=') => {
                out.push(Token::Symbol(Symbol::NotEq));
                i += 2;
            }
            b'<' => match b.get(i + 1) {
                Some(b'=') => {
                    out.push(Token::Symbol(Symbol::LtEq));
                    i += 2;
                }
                Some(b'>') => {
                    out.push(Token::Symbol(Symbol::NotEq));
                    i += 2;
                }
                _ => {
                    out.push(Token::Symbol(Symbol::Lt));
                    i += 1;
                }
            },
            b'>' => {
                if b.get(i + 1) == Some(&b'=') {
                    out.push(Token::Symbol(Symbol::GtEq));
                    i += 2;
                } else {
                    out.push(Token::Symbol(Symbol::Gt));
                    i += 1;
                }
            }
            b'|' if b.get(i + 1) == Some(&b'|') => {
                out.push(Token::Symbol(Symbol::Concat));
                i += 2;
            }
            b'\'' => {
                let (s, ni) = lex_string(input, i)?;
                out.push(Token::String(s));
                i = ni;
            }
            b'"' => {
                let end = input[i + 1..]
                    .find('"')
                    .ok_or_else(|| DbError::Syntax("unterminated quoted identifier".into()))?;
                out.push(Token::QuotedIdent(input[i + 1..i + 1 + end].to_string()));
                i += end + 2;
            }
            b'0'..=b'9' => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'.') {
                    i += 1;
                }
                // Scientific notation.
                if i < b.len() && (b[i] == b'e' || b[i] == b'E') {
                    let mut j = i + 1;
                    if j < b.len() && (b[j] == b'+' || b[j] == b'-') {
                        j += 1;
                    }
                    if j < b.len() && b[j].is_ascii_digit() {
                        i = j;
                        while i < b.len() && b[i].is_ascii_digit() {
                            i += 1;
                        }
                    }
                }
                out.push(Token::Number(input[start..i].to_string()));
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                out.push(Token::Ident(input[start..i].to_string()));
            }
            other => {
                return Err(DbError::Syntax(format!(
                    "unexpected character {:?} at byte {i}",
                    other as char
                )))
            }
        }
    }
    Ok(out)
}

fn lex_string(input: &str, start: usize) -> Result<(String, usize)> {
    let b = input.as_bytes();
    let mut i = start + 1;
    let mut s = String::new();
    loop {
        if i >= b.len() {
            return Err(DbError::Syntax("unterminated string literal".into()));
        }
        if b[i] == b'\'' {
            if b.get(i + 1) == Some(&b'\'') {
                s.push('\'');
                i += 2;
            } else {
                return Ok((s, i + 1));
            }
        } else {
            // Copy the full UTF-8 character.
            let ch_len = utf8_len(b[i]);
            s.push_str(&input[i..i + ch_len]);
            i += ch_len;
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_statement() {
        let toks = tokenize("SELECT a, b FROM t WHERE x >= 10.5;").unwrap();
        assert!(toks[0].is_kw("select"));
        assert_eq!(toks[1], Token::Ident("a".into()));
        assert!(toks.contains(&Token::Symbol(Symbol::GtEq)));
        assert!(toks.contains(&Token::Number("10.5".into())));
        assert_eq!(*toks.last().unwrap(), Token::Symbol(Symbol::Semicolon));
    }

    #[test]
    fn strings_with_escaped_quotes() {
        let toks = tokenize("'it''s'").unwrap();
        assert_eq!(toks, vec![Token::String("it's".into())]);
    }

    #[test]
    fn comparison_operators() {
        let toks = tokenize("a <> b != c <= d >= e || f").unwrap();
        let syms: Vec<_> = toks
            .iter()
            .filter_map(|t| match t {
                Token::Symbol(s) => Some(*s),
                _ => None,
            })
            .collect();
        assert_eq!(
            syms,
            vec![
                Symbol::NotEq,
                Symbol::NotEq,
                Symbol::LtEq,
                Symbol::GtEq,
                Symbol::Concat
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        let toks = tokenize("SELECT 1 -- trailing\n, 2").unwrap();
        assert_eq!(
            toks.iter()
                .filter(|t| matches!(t, Token::Number(_)))
                .count(),
            2
        );
    }

    #[test]
    fn quoted_identifiers() {
        let toks = tokenize("\"My Table\".col").unwrap();
        assert_eq!(toks[0], Token::QuotedIdent("My Table".into()));
        assert_eq!(toks[1], Token::Symbol(Symbol::Dot));
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(tokenize("'abc").is_err());
    }

    #[test]
    fn unicode_in_strings() {
        let toks = tokenize("'héllo ☃'").unwrap();
        assert_eq!(toks, vec![Token::String("héllo ☃".into())]);
    }

    #[test]
    fn qualified_names() {
        let toks = tokenize("t1.c2").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("t1".into()),
                Token::Symbol(Symbol::Dot),
                Token::Ident("c2".into())
            ]
        );
    }
}
