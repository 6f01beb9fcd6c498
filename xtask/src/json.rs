//! A minimal JSON reader for the benchmark's files: `BENCHMARK.json` and
//! the one-line result a `perfbench/run.py` run prints last.

/// A parsed JSON value. Object members keep their file order.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document; trailing text other than whitespace is
    /// an error.
    pub(crate) fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        let value = p.value()?;
        p.skip_ws();
        if p.at != p.bytes.len() {
            return Err(format!("trailing text at byte {}", p.at));
        }
        Ok(value)
    }

    /// The member `key` of an object.
    pub(crate) fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'t> {
    bytes: &'t [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.at))
    }

    fn eat(&mut self, word: &str) -> bool {
        let hit = self.bytes[self.at..].starts_with(word.as_bytes());
        if hit {
            self.at += word.len();
        }
        hit
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.at) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ if self.eat("true") => Ok(Json::Bool(true)),
            _ if self.eat("false") => Ok(Json::Bool(false)),
            _ if self.eat("null") => Ok(Json::Null),
            _ => self.err("expected a value"),
        }
    }

    /// The items of an array or object between `open` and `close`, each
    /// read by `item`.
    fn items<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.at += 1;
        let mut out = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.at) == Some(&close) {
            self.at += 1;
            return Ok(out);
        }
        loop {
            out.push(item(self)?);
            self.skip_ws();
            match self.bytes.get(self.at) {
                Some(b',') => self.at += 1,
                Some(&c) if c == close => {
                    self.at += 1;
                    return Ok(out);
                }
                _ => return self.err("expected `,` or a closing bracket"),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.items(b'}', |p| {
            p.skip_ws();
            if p.bytes.get(p.at) != Some(&b'"') {
                return p.err("expected a member name");
            }
            let key = p.string()?;
            p.skip_ws();
            if !p.eat(":") {
                return p.err("expected `:`");
            }
            Ok((key, p.value()?))
        })
        .map(Json::Obj)
    }

    fn array(&mut self) -> Result<Json, String> {
        self.items(b']', Self::value).map(Json::Arr)
    }

    fn string(&mut self) -> Result<String, String> {
        self.at += 1;
        let mut out = String::new();
        loop {
            let start = self.at;
            while !matches!(self.bytes.get(self.at), None | Some(b'"' | b'\\')) {
                self.at += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.at])
                    .map_err(|_| format!("invalid UTF-8 at byte {start}"))?,
            );
            match self.bytes.get(self.at) {
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    let escaped = match self.bytes.get(self.at + 1) {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b't') => '\t',
                        Some(b'r') => '\r',
                        _ => return self.err("unsupported escape"),
                    };
                    out.push(escaped);
                    self.at += 2;
                }
                _ => return self.err("unterminated string"),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        while self
            .bytes
            .get(self.at)
            .is_some_and(|b| matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
        {
            self.at += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at]).unwrap_or_default();
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Json::Num(x)),
            _ => Err(format!("invalid number `{text}` at byte {start}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let doc = Json::parse(r#" {"a": [1, -2.5e1, true, null], "b": {"c": "x\"y"}, "d": []} "#)
            .unwrap();
        assert_eq!(
            doc.get("a"),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(-25.0),
                Json::Bool(true),
                Json::Null
            ]))
        );
        assert_eq!(
            doc.get("b").and_then(|b| b.get("c")).and_then(Json::as_str),
            Some("x\"y")
        );
        assert_eq!(doc.get("d"), Some(&Json::Arr(Vec::new())));
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            r#"{"a" 1}"#,
            r#"{"a": 1} x"#,
            r#""open"#,
            "1e999",
            "tru",
            r#"{1: 2}"#,
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
    }
}
