//! A strict RFC 8259 reader for the telemetry tests (`obs` only writes
//! JSON). Surrogate `\u` escapes are rejected: the writer emits non-ASCII
//! characters raw.

/// A parsed JSON value.
#[derive(Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// A number with no sign, fraction or exponent that fits in a `u64`.
    Int(u64),
    Num(f64),
    Str(String),
    Seq(Vec<Value>),
    /// Object entries in document order.
    Map(Vec<(String, Value)>),
}

static NULL: Value = Value::Null;

impl Value {
    /// The value under `key`; absent keys and non-objects read as `Null`.
    pub fn get(&self, key: &str) -> &Value {
        self.as_map()
            .and_then(|m| m.iter().find(|(k, _)| k == key))
            .map_or(&NULL, |(_, v)| v)
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_seq(&self) -> Option<&[Value]> {
        match self {
            Value::Seq(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_map(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Map(entries) => Some(entries),
            _ => None,
        }
    }
}

/// Parses one complete document; only whitespace may follow the value.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { text, pos: 0 };
    let value = p.value()?;
    p.skip_ws();
    (p.pos == text.len())
        .then_some(value)
        .ok_or_else(|| p.error("trailing bytes after the value"))
}

struct Parser<'a> {
    text: &'a str,
    /// Byte offset of the next unread character.
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<char> {
        self.text[self.pos..].chars().next()
    }

    fn next(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    /// Consumes `c` (always ASCII) if it is next.
    fn eat(&mut self, c: char) -> bool {
        let hit = self.peek() == Some(c);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, c: char) -> Result<(), String> {
        self.eat(c)
            .then_some(())
            .ok_or_else(|| self.error(&format!("expected `{c}`")))
    }

    fn skip_ws(&mut self) {
        let rest = &self.text[self.pos..];
        self.pos += rest.len() - rest.trim_start_matches([' ', '\t', '\n', '\r']).len();
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        let words = [
            ("null", Value::Null),
            ("true", Value::Bool(true)),
            ("false", Value::Bool(false)),
        ];
        for (word, value) in words {
            if self.text[self.pos..].starts_with(word) {
                self.pos += word.len();
                return Ok(value);
            }
        }
        match self.peek() {
            Some('"') => self.string().map(Value::Str),
            Some('[') => {
                self.pos += 1;
                let mut items = Vec::new();
                while !self.close(']', items.is_empty())? {
                    items.push(self.value()?);
                }
                Ok(Value::Seq(items))
            }
            Some('{') => {
                self.pos += 1;
                let mut entries = Vec::new();
                while !self.close('}', entries.is_empty())? {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(':')?;
                    entries.push((key, self.value()?));
                }
                Ok(Value::Map(entries))
            }
            Some('-' | '0'..='9') => self.number(),
            _ => Err(self.error("expected a value")),
        }
    }

    /// Inside an array or object: true at its closing bracket, else
    /// consumes the comma that separates the next item from the previous.
    fn close(&mut self, bracket: char, first: bool) -> Result<bool, String> {
        self.skip_ws();
        let closed = self.eat(bracket);
        if !closed && !first {
            self.expect(',')?;
        }
        Ok(closed)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.next() {
                Some('"') => return Ok(out),
                Some('\\') => out.push(self.escape()?),
                Some(c) if c < ' ' => return Err(self.error("raw control character in string")),
                Some(c) => out.push(c),
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    fn escape(&mut self) -> Result<char, String> {
        Ok(match self.next() {
            Some(c @ ('"' | '\\' | '/')) => c,
            Some('b') => '\u{8}',
            Some('f') => '\u{c}',
            Some('n') => '\n',
            Some('r') => '\r',
            Some('t') => '\t',
            Some('u') => {
                let hex = self.text.get(self.pos..self.pos + 4);
                let hex = hex.filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()));
                self.pos += 4;
                let code = hex.and_then(|h| char::from_u32(u32::from_str_radix(h, 16).unwrap()));
                code.ok_or_else(|| self.error("bad \\u escape"))?
            }
            _ => return Err(self.error("bad escape")),
        })
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        self.eat('-');
        let mut ok = self.digits(true);
        ok &= !self.eat('.') || self.digits(false);
        if self.eat('e') || self.eat('E') {
            let _ = self.eat('+') || self.eat('-');
            ok &= self.digits(false);
        }
        let text = &self.text[start..self.pos];
        if !ok {
            return Err(self.error(&format!("bad number `{text}`")));
        }
        Ok(text
            .parse()
            .map_or_else(|_| Value::Num(text.parse().unwrap()), Value::Int))
    }

    /// Consumes a run of digits; false if it is empty, or if `integer`
    /// and it is a leading zero followed by more digits.
    fn digits(&mut self, integer: bool) -> bool {
        let rest = &self.text[self.pos..];
        let run = &rest[..rest.len() - rest.trim_start_matches(|c: char| c.is_ascii_digit()).len()];
        self.pos += run.len();
        !(run.is_empty() || (integer && run.len() > 1 && run.starts_with('0')))
    }
}

#[test]
fn reads_every_kind_of_value() {
    let a = r#"[0, 12345, 18446744073709551615, true, false, null]"#;
    let v = parse(&format!(r#" {{"a": {a}, "s": "q\"\\\/\n\u0001é"}} "#)).unwrap();
    let a = v.get("a").as_seq().unwrap();
    assert_eq!(a[..3], [0, 12345, u64::MAX].map(Value::Int));
    assert_eq!(a[3..], [Value::Bool(true), Value::Bool(false), Value::Null]);
    let nums = parse("[-2, 3.5e1, 12345.0, 1.2345e4, 12345.000000, 18446744073709551616]");
    let nums_want = [-2.0, 35.0, 12345.0, 12345.0, 12345.0, 2f64.powi(64)].map(Value::Num);
    assert_eq!(nums.unwrap().as_seq().unwrap(), nums_want);
    assert_eq!(v.get("s").as_str(), Some("q\"\\/\n\u{1}é"));
    assert_eq!(v.get("missing"), &Value::Null);
    assert_eq!(parse("[ ]"), Ok(Value::Seq(vec![])));
    assert_eq!(parse("{ }"), Ok(Value::Map(vec![])));
}

#[test]
fn rejects_malformed_documents() {
    let trailing_commas = ["[1,2,]", "{\"a\":1,}", "[,]"];
    let unterminated = ["\"abc", "{\"a\":\"b}", "\"abc\\"];
    let after_the_value = ["{} x", "1 2", "[1]]"];
    let raw_controls = ["\"a\u{1}b\"", "\"a\nb\"", "\"a\tb\""];
    let numbers = ["01", "-", "1.", "1e", "-01.5", ".5", "+1"];
    let other = [
        "",
        "[",
        "nul",
        "{\"a\" 1}",
        "{1:2}",
        "\"\\x\"",
        "\"\\u12g4\"",
        "\"\\ud800\"",
    ];
    let groups = [trailing_commas, unterminated, after_the_value, raw_controls];
    for bad in groups.iter().flatten().chain(&numbers).chain(&other) {
        assert!(parse(bad).is_err(), "accepted {bad:?}");
    }
}
