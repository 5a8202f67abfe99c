//! Strict JSON syntax check (RFC 8259), for tests that pin the
//! workspace's hand-built JSON emitters without a JSON crate.
//!
//! Only syntax is checked — nothing is decoded — but strings are held to
//! the letter of the grammar: a raw control character, an unknown escape
//! or a short `\u` sequence fails, which is exactly how a hand-rolled
//! escaper goes wrong.

/// True when `s` is one JSON value, optionally surrounded by whitespace.
pub fn is_json(s: &str) -> bool {
    let mut p = Parser {
        b: s.as_bytes(),
        i: 0,
    };
    p.ws();
    let ok = p.value();
    p.ws();
    ok && p.i == p.b.len()
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> bool {
        let hit = self.peek() == Some(c);
        if hit {
            self.i += 1;
        }
        hit
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn word(&mut self, w: &str) -> bool {
        let hit = self.b[self.i..].starts_with(w.as_bytes());
        if hit {
            self.i += w.len();
        }
        hit
    }

    fn value(&mut self) -> bool {
        match self.peek() {
            Some(b'{') => self.items(b'}', Self::member),
            Some(b'[') => self.items(b']', Self::value),
            Some(b'"') => self.string(),
            Some(b't') => self.word("true"),
            Some(b'f') => self.word("false"),
            Some(b'n') => self.word("null"),
            _ => self.number(),
        }
    }

    /// `"key": value` inside an object.
    fn member(&mut self) -> bool {
        if !self.string() {
            return false;
        }
        self.ws();
        if !self.eat(b':') {
            return false;
        }
        self.ws();
        self.value()
    }

    /// The opening bracket is next: comma-separated items, then `close`.
    fn items(&mut self, close: u8, item: impl Fn(&mut Self) -> bool) -> bool {
        self.i += 1;
        self.ws();
        if self.eat(close) {
            return true;
        }
        loop {
            if !item(self) {
                return false;
            }
            self.ws();
            if self.eat(close) {
                return true;
            }
            if !self.eat(b',') {
                return false;
            }
            self.ws();
        }
    }

    fn string(&mut self) -> bool {
        if !self.eat(b'"') {
            return false;
        }
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.i += 1;
                    return true;
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.peek() {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => self.i += 1,
                        Some(b'u') => {
                            self.i += 1;
                            for _ in 0..4 {
                                if !self.peek().is_some_and(|c| c.is_ascii_hexdigit()) {
                                    return false;
                                }
                                self.i += 1;
                            }
                        }
                        _ => return false,
                    }
                }
                Some(c) if c >= 0x20 => self.i += 1,
                _ => return false,
            }
        }
    }

    fn digits(&mut self) -> bool {
        let start = self.i;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.i += 1;
        }
        self.i > start
    }

    fn number(&mut self) -> bool {
        self.eat(b'-');
        if !self.eat(b'0') && !self.digits() {
            return false;
        }
        if self.eat(b'.') && !self.digits() {
            return false;
        }
        if self.eat(b'e') || self.eat(b'E') {
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            return self.digits();
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::is_json;

    #[test]
    fn accepts_json() {
        for s in [
            "0",
            "-1.5e+3",
            " true ",
            "null",
            r#""a\"b\\c\né""#,
            "[]",
            "{}",
            r#"{"a":[1,2,{"b":null}],"c":"d"}"#,
            "[ 1 , \"x\" ]",
        ] {
            assert!(is_json(s), "{s}");
        }
    }

    #[test]
    fn refuses_what_a_naive_escaper_emits() {
        for s in [
            "\"tab\there\"",
            "\"new\nline\"",
            r#""quote"inside""#,
            r#""bad \q escape""#,
            r#""\u12""#,
            "{\"a\":1,}",
            "[1 2]",
            "01",
            "1.",
            "{\"a\" 1}",
            "",
            "{} {}",
            "tru",
        ] {
            assert!(!is_json(s), "{s:?}");
        }
    }
}
