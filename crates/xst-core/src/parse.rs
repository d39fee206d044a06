//! Parser for the textual XST notation produced by the crate's `Display` implementations.
//!
//! Grammar (whitespace-insensitive):
//!
//! ```text
//! value   := '∅' | set | tuple | bytes | string | word
//! set     := '{' [ member (',' member)* ] '}'
//! member  := value [ '^' value ]          -- '^∅' may be omitted
//! tuple   := ('⟨'|'<') [ value (',' value)* ] ('⟩'|'>')
//! bytes   := 'b"' hex* '"'
//! string  := '"' ... '"'
//! word    := run of symbol characters; classified as bool / int / float /
//!            symbol
//! ```
//!
//! Tuples parse into their Definition 9.1 set form `{x1^1, ..., xn^n}`, so
//! `⟨a,b⟩` and `{a^1, b^2}` denote the same value. Round-tripping is tested
//! both here and by property tests in the integration crate.
//!
//! Sets and tuples nest at most [`MAX_DEPTH`] deep — the binary codec's
//! cap — so pasted text cannot recurse the parser off the stack.

use crate::codec::MAX_DEPTH;
use crate::error::{XstError, XstResult};
use crate::set::{ExtendedSet, SetBuilder};
use crate::value::Value;

/// Parse a [`Value`] from the textual notation.
pub fn parse_value(input: &str) -> XstResult<Value> {
    let mut p = Parser::new(input);
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos < p.chars.len() {
        return Err(p.err("trailing input"));
    }
    Ok(v)
}

/// Parse an [`ExtendedSet`]; accepts set, tuple, or `∅` syntax.
pub fn parse_set(input: &str) -> XstResult<ExtendedSet> {
    match parse_value(input)? {
        Value::Set(s) => Ok(s),
        other => Err(XstError::Parse {
            offset: 0,
            message: format!("expected a set, found atom {other}"),
        }),
    }
}

struct Parser {
    chars: Vec<(usize, char)>,
    pos: usize,
    /// Sets and tuples currently open around `pos`.
    depth: usize,
}

impl Parser {
    fn new(input: &str) -> Parser {
        Parser {
            chars: input.char_indices().collect(),
            pos: 0,
            depth: 0,
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).map(|&(_, c)| c)
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn offset(&self) -> usize {
        self.chars
            .get(self.pos)
            .map(|&(o, _)| o)
            .unwrap_or_else(|| {
                self.chars
                    .last()
                    .map(|&(o, c)| o + c.len_utf8())
                    .unwrap_or(0)
            })
    }

    fn err(&self, message: impl Into<String>) -> XstError {
        XstError::Parse {
            offset: self.offset(),
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_whitespace()) {
            self.pos += 1;
        }
    }

    fn expect_char(&mut self, c: char) -> XstResult<()> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{c}'")))
        }
    }

    fn value(&mut self) -> XstResult<Value> {
        self.skip_ws();
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some('∅') => {
                self.bump();
                Ok(Value::empty_set())
            }
            Some('{') => self.nested(Parser::set),
            Some('⟨') | Some('<') => self.nested(Parser::tuple),
            Some('"') => self.string(),
            Some('b') if self.chars.get(self.pos + 1).map(|&(_, c)| c) == Some('"') => self.bytes(),
            Some(_) => self.word(),
        }
    }

    fn nested(&mut self, body: fn(&mut Parser) -> XstResult<Value>) -> XstResult<Value> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = body(self);
        self.depth -= 1;
        v
    }

    fn set(&mut self) -> XstResult<Value> {
        self.expect_char('{')?;
        let mut b = SetBuilder::new();
        self.skip_ws();
        if self.peek() == Some('}') {
            self.bump();
            return Ok(Value::Set(b.build()));
        }
        loop {
            let element = self.value()?;
            self.skip_ws();
            let scope = if self.peek() == Some('^') {
                self.bump();
                self.value()?
            } else {
                Value::classical_scope()
            };
            b.scoped(element, scope);
            self.skip_ws();
            match self.bump() {
                Some(',') => continue,
                Some('}') => break,
                _ => return Err(self.err("expected ',' or '}' in set")),
            }
        }
        Ok(Value::Set(b.build()))
    }

    fn tuple(&mut self) -> XstResult<Value> {
        let Some(open) = self.bump() else {
            return Err(self.err("unexpected end of input"));
        };
        let close = if open == '⟨' { '⟩' } else { '>' };
        let mut components = Vec::new();
        self.skip_ws();
        if self.peek() == Some(close) {
            self.bump();
            return Ok(Value::Set(ExtendedSet::tuple(components)));
        }
        loop {
            components.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(',') => continue,
                Some(c) if c == close => break,
                _ => return Err(self.err(format!("expected ',' or '{close}' in tuple"))),
            }
        }
        Ok(Value::Set(ExtendedSet::tuple(components)))
    }

    fn string(&mut self) -> XstResult<Value> {
        self.expect_char('"')?;
        let mut s = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some('"') => break,
                Some('\\') => match self.bump() {
                    Some('"') => s.push('"'),
                    Some('\\') => s.push('\\'),
                    Some('n') => s.push('\n'),
                    Some('t') => s.push('\t'),
                    _ => return Err(self.err("bad escape in string")),
                },
                Some(c) => s.push(c),
            }
        }
        Ok(Value::str(s))
    }

    fn bytes(&mut self) -> XstResult<Value> {
        self.expect_char('b')?;
        self.expect_char('"')?;
        let mut hex = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated byte string")),
                Some('"') => break,
                Some(c) if c.is_ascii_hexdigit() => hex.push(c),
                Some(c) => return Err(self.err(format!("non-hex byte char '{c}'"))),
            }
        }
        if !hex.len().is_multiple_of(2) {
            return Err(self.err("odd number of hex digits"));
        }
        let mut bytes = Vec::with_capacity(hex.len() / 2);
        for pair in hex.as_bytes().chunks(2) {
            let digits = std::str::from_utf8(pair).map_err(|_| self.err("non-ascii hex pair"))?;
            let byte = u8::from_str_radix(digits, 16).map_err(|_| self.err("invalid hex pair"))?;
            bytes.push(byte);
        }
        Ok(Value::bytes(bytes))
    }

    fn is_word_char(c: char) -> bool {
        c.is_alphanumeric()
            || matches!(
                c,
                '_' | '+' | '-' | '*' | '/' | '=' | '!' | '?' | '.' | '\''
            )
    }

    fn word(&mut self) -> XstResult<Value> {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if Self::is_word_char(c)) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("unexpected character"));
        }
        let word: String = self.chars[start..self.pos]
            .iter()
            .map(|&(_, c)| c)
            .collect();
        Ok(classify_word(&word))
    }
}

fn classify_word(word: &str) -> Value {
    match word {
        "true" => return Value::Bool(true),
        "false" => return Value::Bool(false),
        _ => {}
    }
    let digits = word.strip_prefix('-').unwrap_or(word);
    if !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()) {
        if let Ok(i) = word.parse::<i64>() {
            return Value::Int(i);
        }
    }
    // Float: one '.', digit runs on both sides.
    if let Some((int_part, frac_part)) = digits.split_once('.') {
        let numeric = !int_part.is_empty()
            && !frac_part.is_empty()
            && int_part.bytes().all(|b| b.is_ascii_digit())
            && frac_part.bytes().all(|b| b.is_ascii_digit());
        if numeric {
            if let Ok(f) = word.parse::<f64>() {
                return Value::float(f);
            }
        }
    }
    Value::sym(word)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{xset, xtuple};

    #[test]
    fn parse_atoms() {
        assert_eq!(parse_value("7").unwrap(), Value::Int(7));
        assert_eq!(parse_value("-7").unwrap(), Value::Int(-7));
        assert_eq!(parse_value("2.5").unwrap(), Value::float(2.5));
        assert_eq!(parse_value("true").unwrap(), Value::Bool(true));
        assert_eq!(parse_value("abc").unwrap(), Value::sym("abc"));
        assert_eq!(parse_value("-2i").unwrap(), Value::sym("-2i"));
        assert_eq!(parse_value("+").unwrap(), Value::sym("+"));
        assert_eq!(parse_value("\"hi\"").unwrap(), Value::str("hi"));
        assert_eq!(
            parse_value("b\"6869\"").unwrap(),
            Value::bytes([0x68, 0x69])
        );
        assert_eq!(parse_value("∅").unwrap(), Value::empty_set());
    }

    #[test]
    fn parse_sets_and_scopes() {
        assert_eq!(parse_set("{a^1, b}").unwrap(), xset!["a" => 1, "b"]);
        assert_eq!(parse_set("{}").unwrap(), ExtendedSet::empty());
        assert_eq!(
            parse_set("{a^{x, y}}").unwrap(),
            xset!["a" => xset!["x", "y"].into_value()]
        );
    }

    #[test]
    fn parse_tuples_both_bracket_styles() {
        assert_eq!(parse_set("⟨a, b⟩").unwrap(), xtuple!["a", "b"]);
        assert_eq!(parse_set("<a, b>").unwrap(), xtuple!["a", "b"]);
        assert_eq!(parse_set("⟨⟩").unwrap(), ExtendedSet::empty());
        // Tuple notation is sugar for the Definition 9.1 set.
        assert_eq!(
            parse_set("⟨a, b⟩").unwrap(),
            parse_set("{a^1, b^2}").unwrap()
        );
    }

    #[test]
    fn parse_nested() {
        let got = parse_set("{⟨a, x⟩^⟨A, Z⟩, ⟨b, y⟩}").unwrap();
        let expected = xset![
            ExtendedSet::pair("a", "x").into_value() => xtuple!["A", "Z"].into_value(),
            ExtendedSet::pair("b", "y").into_value()
        ];
        assert_eq!(got, expected);
    }

    #[test]
    fn parse_errors() {
        assert!(parse_value("").is_err());
        assert!(parse_value("{a").is_err());
        assert!(parse_value("⟨a, ⟩junk").is_err());
        assert!(parse_value("{a^}").is_err());
        assert!(parse_value("\"unterminated").is_err());
        assert!(parse_value("b\"123\"").is_err(), "odd hex digits");
        assert!(parse_value("b\"zz\"").is_err(), "non-hex");
        assert!(parse_set("atom").is_err(), "atoms are not sets");
        assert!(parse_value("a b").is_err(), "trailing input");
        let deep = |n: usize| "{".repeat(n) + &"}".repeat(n);
        assert_eq!(parse_value(&deep(MAX_DEPTH)).unwrap().depth(), MAX_DEPTH);
        assert!(parse_value(&deep(MAX_DEPTH + 1)).is_err(), "nesting cap");
        assert!(parse_value(&"{⟨".repeat(100_000)).is_err(), "no overflow");
    }

    #[test]
    fn display_roundtrip() {
        let originals = [
            xset!["a" => 1, "b"],
            xtuple!["a", "b", "c"],
            xset![xtuple!["a", "x"].into_value() => xtuple!["A", "Z"].into_value()],
            ExtendedSet::empty(),
            xset![
                Value::Int(-3),
                Value::float(2.5),
                Value::str("s"),
                Value::Bool(false)
            ],
            xset![Value::bytes([1u8, 255])],
        ];
        for s in originals {
            let text = s.to_string();
            assert_eq!(parse_set(&text).unwrap(), s, "roundtrip of {text}");
        }
    }

    #[test]
    fn whitespace_insensitive() {
        assert_eq!(
            parse_set("  { a ^ 1 ,\n b }  ").unwrap(),
            xset!["a" => 1, "b"]
        );
    }
}
