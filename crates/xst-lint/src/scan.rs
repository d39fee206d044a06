//! A small lexical scanner: blanks comments and literal contents out of
//! Rust source so token rules cannot fire inside them, extracts string
//! literals for the metric-name rule, and marks `#[cfg(test)]` regions.
//!
//! This is deliberately not a full Rust lexer — it understands exactly as
//! much syntax as the lint rules need: line and block comments (nested),
//! string literals with escapes, raw strings, char literals vs lifetimes,
//! and attribute-gated test regions found by brace counting.

/// One extracted string literal.
pub struct StringLit {
    /// Byte offset of the opening quote in the original source.
    pub at: usize,
    /// The literal's contents (escapes left as written).
    pub text: String,
}

/// One `// lint: <rule>: <why>` justification comment. Passes that
/// support justified exemptions (`lock-across-io`, `unnumbered-io`,
/// `determinism`) match findings against these by line; the driver
/// reports any justification no finding ever used.
pub struct Justification {
    /// Byte offset of the `//` in the original source.
    pub at: usize,
    /// 1-based line the comment sits on.
    pub line: usize,
    /// The rule being justified, e.g. `lock-across-io`.
    pub rule: String,
    /// The stated reason (everything after the second colon, trimmed).
    pub why: String,
}

/// The scanner's product: a blanked code view plus extracted literals and
/// test-region spans, all indexed by byte offset into the original source.
pub struct SourceView {
    /// The source with comments and string/char contents replaced by
    /// spaces (newlines kept, so offsets and line numbers still align).
    pub code: String,
    /// Every string literal, in source order.
    pub strings: Vec<StringLit>,
    /// Half-open byte ranges covered by `#[cfg(test)]` items.
    pub test_regions: Vec<(usize, usize)>,
    /// Every `// lint: <rule>: <why>` comment, in source order.
    pub justifications: Vec<Justification>,
}

impl SourceView {
    /// Scan `source` into a view.
    pub fn new(source: &str) -> SourceView {
        let (code, strings, mut justifications) = blank(source);
        let test_regions = find_test_regions(&code);
        for j in &mut justifications {
            j.line = code.as_bytes()[..j.at]
                .iter()
                .filter(|&&b| b == b'\n')
                .count()
                + 1;
        }
        SourceView {
            code,
            strings,
            test_regions,
            justifications,
        }
    }

    /// Justifications for `rule` on any of the given 1-based lines.
    /// Returns indices into `self.justifications`.
    pub fn justifications_on(&self, rule: &str, lines: &[usize]) -> Vec<usize> {
        self.justifications
            .iter()
            .enumerate()
            .filter(|(_, j)| j.rule == rule && lines.contains(&j.line))
            .map(|(i, _)| i)
            .collect()
    }

    /// Is byte offset `at` inside a `#[cfg(test)]` region?
    pub fn in_test(&self, at: usize) -> bool {
        self.test_regions.iter().any(|&(s, e)| s <= at && at < e)
    }

    /// 1-based line number of byte offset `at`.
    pub fn line_of(&self, at: usize) -> usize {
        self.code.as_bytes()[..at.min(self.code.len())]
            .iter()
            .filter(|&&b| b == b'\n')
            .count()
            + 1
    }
}

/// Replace comments and literal contents with spaces; collect strings
/// and `// lint:` justification comments.
fn blank(source: &str) -> (String, Vec<StringLit>, Vec<Justification>) {
    let b = source.as_bytes();
    let mut out = vec![b' '; b.len()];
    let mut strings = Vec::new();
    let mut justifications = Vec::new();
    let mut i = 0;
    // Keep newlines so line numbers survive blanking.
    for (k, &c) in b.iter().enumerate() {
        if c == b'\n' {
            out[k] = b'\n';
        }
    }
    while i < b.len() {
        match b[i] {
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                let start = i;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                if let Some(j) = parse_justification(&source[start..i], start) {
                    justifications.push(j);
                }
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let mut depth = 1;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            b'"' => {
                let start = i;
                i += 1;
                let mut text = String::new();
                while i < b.len() {
                    if b[i] == b'\\' && i + 1 < b.len() {
                        text.push(b[i] as char);
                        text.push(b[i + 1] as char);
                        i += 2;
                    } else if b[i] == b'"' {
                        break;
                    } else {
                        text.push(b[i] as char);
                        i += 1;
                    }
                }
                // Keep the quotes visible in the code view so adjacency
                // checks (e.g. `.expect(`) still look sane.
                out[start] = b'"';
                if i < b.len() {
                    out[i] = b'"';
                    i += 1;
                }
                strings.push(StringLit { at: start, text });
            }
            b'r' if is_raw_string_start(b, i) => {
                let (end, hashes, content_start) = raw_string_span(b, i);
                let text = source[content_start..end.saturating_sub(1 + hashes)].to_string();
                strings.push(StringLit { at: i, text });
                i = end;
            }
            b'\'' => {
                // Char literal or lifetime? A char literal closes within a
                // couple of characters; a lifetime never closes.
                if i + 1 < b.len() && b[i + 1] == b'\\' {
                    i += 2; // skip the escape lead-in
                    while i < b.len() && b[i] != b'\'' {
                        i += 1;
                    }
                    i += 1;
                } else if i + 2 < b.len() && b[i + 2] == b'\'' {
                    i += 3;
                } else {
                    out[i] = b'\'';
                    i += 1; // lifetime: just the quote
                }
            }
            c => {
                out[i] = c;
                i += 1;
            }
        }
    }
    (
        String::from_utf8(out).unwrap_or_default(),
        strings,
        justifications,
    )
}

/// Parse one line comment as a `// lint: <rule>: <why>` justification.
/// `text` is the comment including its leading slashes; `at` its offset.
/// The `line` field is filled in later (the caller counts newlines once).
fn parse_justification(text: &str, at: usize) -> Option<Justification> {
    let body = text.trim_start_matches('/').trim_start_matches('!').trim();
    let rest = body.strip_prefix("lint:")?.trim_start();
    let colon = rest.find(':')?;
    let rule = rest[..colon].trim().to_string();
    let why = rest[colon + 1..].trim().to_string();
    if rule.is_empty() {
        return None;
    }
    Some(Justification {
        at,
        line: 0,
        rule,
        why,
    })
}

fn is_raw_string_start(b: &[u8], i: usize) -> bool {
    let mut j = i + 1;
    while j < b.len() && b[j] == b'#' {
        j += 1;
    }
    j < b.len() && b[j] == b'"'
}

/// Span of a raw string starting at `i` (`r"…"`, `r#"…"#`, ...). Returns
/// (end offset past the closer, hash count, content start).
fn raw_string_span(b: &[u8], i: usize) -> (usize, usize, usize) {
    let mut j = i + 1;
    while j < b.len() && b[j] == b'#' {
        j += 1;
    }
    let hashes = j - (i + 1);
    let content_start = j + 1;
    let mut k = content_start;
    while k < b.len() {
        if b[k] == b'"'
            && b[k + 1..]
                .iter()
                .take(hashes)
                .filter(|&&c| c == b'#')
                .count()
                == hashes
        {
            return (k + 1 + hashes, hashes, content_start);
        }
        k += 1;
    }
    (b.len(), hashes, content_start)
}

/// Find `#[cfg(test)]`-gated items by brace counting on the blanked view.
fn find_test_regions(code: &str) -> Vec<(usize, usize)> {
    let b = code.as_bytes();
    let mut regions = Vec::new();
    let mut from = 0;
    while let Some(pos) = code[from..].find("#[cfg(test)]") {
        let attr_at = from + pos;
        // The gated item runs from the attribute to the close of the first
        // brace block after it (a gated `use` without braces ends at `;`).
        let mut i = attr_at + "#[cfg(test)]".len();
        let mut depth = 0usize;
        let mut opened = false;
        while i < b.len() {
            match b[i] {
                b'{' => {
                    depth += 1;
                    opened = true;
                }
                b'}' => {
                    depth = depth.saturating_sub(1);
                    if opened && depth == 0 {
                        i += 1;
                        break;
                    }
                }
                b';' if !opened => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
        regions.push((attr_at, i));
        from = i.max(attr_at + 1);
    }
    regions
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_blanked() {
        let src = "let x = 1; // has .unwrap() here\nlet s = \".expect(\"; /* panic! */";
        let v = SourceView::new(src);
        assert!(!v.code.contains(".unwrap()"));
        assert!(!v.code.contains(".expect("));
        assert!(!v.code.contains("panic!"));
        assert_eq!(v.strings.len(), 1);
        assert_eq!(v.strings[0].text, ".expect(");
    }

    #[test]
    fn nested_block_comments_close_correctly() {
        let src = "/* a /* b */ still comment */ let live = 1;";
        let v = SourceView::new(src);
        assert!(v.code.contains("let live"));
        assert!(!v.code.contains("still comment"));
    }

    #[test]
    fn string_literals_are_extracted_with_offsets() {
        let src = "reg(\"xst_demo_total\", \"help text\");";
        let v = SourceView::new(src);
        let texts: Vec<_> = v.strings.iter().map(|s| s.text.as_str()).collect();
        assert_eq!(texts, vec!["xst_demo_total", "help text"]);
        assert_eq!(v.line_of(v.strings[0].at), 1);
    }

    #[test]
    fn raw_strings_are_extracted() {
        let src = "let s = r\"xst_raw\"; let t = r#\"with \"quote\"\"#;";
        let v = SourceView::new(src);
        assert_eq!(v.strings[0].text, "xst_raw");
        assert_eq!(v.strings[1].text, "with \"quote\"");
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> char { 'x' }";
        let v = SourceView::new(src);
        // The lifetime names survive blanking; the char content does not.
        assert!(v.code.contains("'a>"));
        assert!(!v.code.contains("'x'"));
    }

    #[test]
    fn escaped_chars_are_skipped() {
        let src = "let c = '\\n'; let q = '\\''; live";
        let v = SourceView::new(src);
        assert!(v.code.contains("live"));
    }

    #[test]
    fn cfg_test_regions_cover_their_braces() {
        let src = "fn live() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n fn t() { y.unwrap(); }\n}\nfn live2() {}";
        let v = SourceView::new(src);
        assert_eq!(v.test_regions.len(), 1);
        let unwraps: Vec<usize> = {
            let mut out = Vec::new();
            let mut from = 0;
            while let Some(p) = v.code[from..].find(".unwrap()") {
                out.push(from + p);
                from += p + 1;
            }
            out
        };
        assert_eq!(unwraps.len(), 2);
        assert!(!v.in_test(unwraps[0]));
        assert!(v.in_test(unwraps[1]));
        let live2 = v.code.find("live2").unwrap();
        assert!(!v.in_test(live2));
    }

    #[test]
    fn justification_comments_are_captured() {
        let src = "fn f() {\n    // lint: lock-across-io: group commit holds the lock by design\n    g(); // lint: unnumbered-io: volatile accessor\n}\n// not a lint comment\n";
        let v = SourceView::new(src);
        assert_eq!(v.justifications.len(), 2);
        assert_eq!(v.justifications[0].rule, "lock-across-io");
        assert_eq!(
            v.justifications[0].why,
            "group commit holds the lock by design"
        );
        assert_eq!(v.justifications[0].line, 2);
        assert_eq!(v.justifications[1].rule, "unnumbered-io");
        assert_eq!(v.justifications[1].line, 3);
        assert_eq!(v.justifications_on("lock-across-io", &[1, 2]), vec![0]);
        assert!(v.justifications_on("lock-across-io", &[3]).is_empty());
    }

    #[test]
    fn line_numbers_survive_blanking() {
        let src = "line1\n// comment\nlet x = \"xst_here\";\n";
        let v = SourceView::new(src);
        assert_eq!(v.line_of(v.strings[0].at), 3);
    }
}
