//! A minimal recursive-descent JSON parser for the report schema tests:
//! the lint, conclint and sqllint reports are emitted by hand (the
//! workspace is offline; no serde), so the tests read them back with a
//! parser that shares no code with the emitters. Numbers parse as `f64`;
//! object keys keep file order.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (integers included).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in file order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member by key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parse one JSON document. Trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    match p.peek() {
        None => Ok(v),
        Some(c) => Err(format!(
            "trailing content at byte {}: {:?}",
            p.pos, c as char
        )),
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, want: u8) -> Result<(), String> {
        match self.bump() {
            Some(b) if b == want => Ok(()),
            Some(b) => Err(format!(
                "expected {:?} at byte {}, found {:?}",
                want as char,
                self.pos - 1,
                b as char
            )),
            None => Err(format!("expected {:?}, found end of input", want as char)),
        }
    }

    fn eat_keyword(&mut self, word: &str) -> Result<(), String> {
        for want in word.bytes() {
            self.eat(want)?;
        }
        Ok(())
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => {
                self.eat_keyword("true")?;
                Ok(Json::Bool(true))
            }
            Some(b'f') => {
                self.eat_keyword("false")?;
                Ok(Json::Bool(false))
            }
            Some(b'n') => {
                self.eat_keyword("null")?;
                Ok(Json::Null)
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(format!("unexpected {:?} at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let val = self.value()?;
            members.push((key, val));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Json::Obj(members)),
                Some(c) => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos - 1,
                        c as char
                    ))
                }
                None => return Err("unterminated object".into()),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Json::Arr(items)),
                Some(c) => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos - 1,
                        c as char
                    ))
                }
                None => return Err("unterminated array".into()),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self
                                .bump()
                                .and_then(|b| (b as char).to_digit(16))
                                .ok_or("bad \\u escape")?;
                            code = code * 16 + d;
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    Some(c) => return Err(format!("bad escape \\{}", c as char)),
                    None => return Err("unterminated string".into()),
                },
                // Reports are mostly ASCII, but pass UTF-8 through
                // byte-wise: continuation bytes re-assemble because we
                // copy them verbatim.
                Some(b) if b < 0x80 => out.push(b as char),
                Some(b) => {
                    // Re-assemble a multi-byte UTF-8 sequence.
                    let start = self.pos - 1;
                    let width = match b {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    for _ in 1..width {
                        self.bump();
                    }
                    let slice = self.bytes.get(start..self.pos).unwrap_or_default();
                    out.push_str(&String::from_utf8_lossy(slice));
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(self.bytes.get(start..self.pos).unwrap_or_default())
            .map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_nesting() {
        let v = parse(r#"{"a": [1, 2.5, -3], "b": {"c": "x", "d": null}, "e": true}"#).unwrap();
        assert_eq!(
            v.get("a").and_then(|a| a.as_arr()).map(|a| a.len()),
            Some(3)
        );
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")).and_then(Json::as_str),
            Some("x")
        );
        assert_eq!(v.get("b").and_then(|b| b.get("d")), Some(&Json::Null));
        assert_eq!(v.get("e"), Some(&Json::Bool(true)));
    }

    #[test]
    fn string_escapes() {
        let v = parse(r#""a\"b\\c\ndA""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndA"));
    }

    #[test]
    fn integers_roundtrip_as_u64() {
        let v = parse("12345678901").unwrap();
        assert_eq!(v.as_u64(), Some(12345678901));
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse("-3").unwrap().as_u64(), None);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("1 trailing").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn empty_containers() {
        assert_eq!(parse("{}").unwrap(), Json::Obj(Vec::new()));
        assert_eq!(parse("[ ]").unwrap(), Json::Arr(Vec::new()));
    }
}
