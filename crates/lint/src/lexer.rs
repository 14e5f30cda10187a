//! A small hand-rolled Rust lexer — just enough token structure for the
//! rules in [`crate::rules`].
//!
//! The build container is offline, so `everest-lint` cannot pull `syn` or
//! `proc-macro2`; instead this module tokenizes Rust source directly. It
//! understands exactly the constructs the rules need to not be fooled by:
//!
//! * line comments (`//`, `///`, `//!`) and **nested** block comments
//!   (`/* /* */ */`, `/**`, `/*!`), kept as tokens so comment-driven rules
//!   (`// SAFETY:`, `// lint:allow(...)`) see them;
//! * string literals in all escapes-relevant forms: `"…"`, `b"…"`, raw
//!   `r"…"` / `r#"…"#` with any number of hashes, `br#"…"#` — so an
//!   `unsafe` or `HashMap` *inside a string* is never mistaken for code,
//!   and `EVEREST_*` env-var names are harvested from literal content;
//! * char literals vs. lifetimes (`'x'` vs `'a`);
//! * identifiers/keywords (one token kind — the rules match on text),
//!   raw identifiers (`r#type`), numbers, and single-char punctuation.
//!
//! Everything else about Rust's grammar (items, expressions, types) is
//! reconstructed heuristically by the rule layer from this stream; see
//! `docs/LINTING.md` for the precision contract.

/// Token class produced by [`lex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Identifier or keyword (the rules match on the text).
    Ident,
    /// Any string literal (`"…"`, `b"…"`, `r#"…"#`, …), text includes the
    /// full source form with quotes/hashes.
    Str,
    /// Char literal (`'x'`, `'\n'`).
    Char,
    /// Lifetime (`'a`) — kept distinct so it is never a char literal.
    Lifetime,
    /// Numeric literal.
    Num,
    /// Single punctuation character.
    Punct,
    /// `//`-style comment, full text including the slashes.
    LineComment,
    /// `/* … */` comment (possibly nested), full text.
    BlockComment,
}

/// One lexed token with its 1-based starting line.
#[derive(Debug, Clone)]
pub struct Tok {
    pub line: usize,
    pub kind: Kind,
    pub text: String,
}

impl Tok {
    /// True for comment tokens of either flavour.
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, Kind::LineComment | Kind::BlockComment)
    }

    /// True when the token is the given punctuation character.
    pub fn is_punct(&self, ch: char) -> bool {
        self.kind == Kind::Punct && self.text.as_bytes().first() == Some(&(ch as u8))
    }

    /// True when the token is an identifier with exactly this text.
    pub fn is_ident(&self, text: &str) -> bool {
        self.kind == Kind::Ident && self.text == text
    }
}

/// Tokenizes `src`. Never fails: on a malformed construct (unterminated
/// string/comment) the remainder of the file becomes one token, which at
/// worst suppresses findings in unparseable code — rustc will reject such
/// a file anyway.
pub fn lex(src: &str) -> Vec<Tok> {
    Lexer {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
        toks: Vec::new(),
    }
    .run()
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
    toks: Vec<Tok>,
}

impl Lexer<'_> {
    fn run(mut self) -> Vec<Tok> {
        while self.pos < self.src.len() {
            let start = self.pos;
            let line = self.line;
            let c = self.src[self.pos];
            match c {
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                _ if c.is_ascii_whitespace() => self.pos += 1,
                b'/' if self.peek(1) == Some(b'/') => {
                    while self.pos < self.src.len() && self.src[self.pos] != b'\n' {
                        self.pos += 1;
                    }
                    self.push(start, line, Kind::LineComment);
                }
                b'/' if self.peek(1) == Some(b'*') => {
                    self.block_comment();
                    self.push(start, line, Kind::BlockComment);
                }
                b'"' => {
                    self.quoted_string();
                    self.push(start, line, Kind::Str);
                }
                b'\'' => {
                    let kind = self.char_or_lifetime();
                    self.push(start, line, kind);
                }
                // Byte-char literal `b'x'` — one Char token, so the `b`
                // never leaks into the stream as a stray identifier.
                b'b' if self.peek(1) == Some(b'\'') => {
                    self.pos += 1;
                    let kind = self.char_or_lifetime();
                    self.push(start, line, kind);
                }
                b'r' | b'b' if self.raw_or_byte_string() => {
                    self.push(start, line, Kind::Str);
                }
                _ if c == b'_' || c.is_ascii_alphabetic() => {
                    // raw identifier prefix r# is handled here too: the
                    // raw_or_byte_string probe above rejected it.
                    self.pos += 1;
                    if c == b'r' && self.peek(0) == Some(b'#') && self.ident_follows(1) {
                        self.pos += 1; // skip '#', keep the ident chars
                    }
                    while self
                        .peek(0)
                        .is_some_and(|c| c == b'_' || c.is_ascii_alphanumeric())
                    {
                        self.pos += 1;
                    }
                    self.push(start, line, Kind::Ident);
                }
                _ if c.is_ascii_digit() => {
                    self.number();
                    self.push(start, line, Kind::Num);
                }
                _ => {
                    self.pos += 1;
                    self.push(start, line, Kind::Punct);
                }
            }
        }
        self.toks
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    fn ident_follows(&self, ahead: usize) -> bool {
        self.peek(ahead)
            .is_some_and(|c| c == b'_' || c.is_ascii_alphabetic())
    }

    fn push(&mut self, start: usize, line: usize, kind: Kind) {
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        self.toks.push(Tok { line, kind, text });
    }

    fn bump_counting_lines(&mut self) {
        if self.src[self.pos] == b'\n' {
            self.line += 1;
        }
        self.pos += 1;
    }

    /// `/* … */` with nesting, Rust-style.
    fn block_comment(&mut self) {
        self.pos += 2;
        let mut depth = 1usize;
        while self.pos < self.src.len() && depth > 0 {
            if self.src[self.pos] == b'/' && self.peek(1) == Some(b'*') {
                depth += 1;
                self.pos += 2;
            } else if self.src[self.pos] == b'*' && self.peek(1) == Some(b'/') {
                depth -= 1;
                self.pos += 2;
            } else {
                self.bump_counting_lines();
            }
        }
    }

    /// `"…"` with escape handling; `self.pos` is on the opening quote.
    fn quoted_string(&mut self) {
        self.pos += 1;
        while self.pos < self.src.len() {
            match self.src[self.pos] {
                b'\\' => {
                    self.pos += 1;
                    if self.pos < self.src.len() {
                        self.bump_counting_lines();
                    }
                }
                b'"' => {
                    self.pos += 1;
                    return;
                }
                _ => self.bump_counting_lines(),
            }
        }
    }

    /// Distinguishes `'x'` / `'\n'` (char literal) from `'a` (lifetime).
    fn char_or_lifetime(&mut self) -> Kind {
        // A lifetime is a quote followed by ident chars *not* closed by a
        // quote: 'a, 'static, '_ — scan ahead to decide.
        if self.ident_follows(1) || self.peek(1) == Some(b'_') {
            let mut ahead = 1;
            while self
                .peek(ahead)
                .is_some_and(|c| c == b'_' || c.is_ascii_alphanumeric())
            {
                ahead += 1;
            }
            if self.peek(ahead) != Some(b'\'') {
                self.pos += ahead; // lifetime: consume quote + ident
                return Kind::Lifetime;
            }
        }
        // Char literal: quote, escape-or-char, closing quote.
        self.pos += 1;
        if self.peek(0) == Some(b'\\') {
            self.pos += 1;
        }
        if self.pos < self.src.len() {
            self.bump_counting_lines();
        }
        // Unicode escapes ('\u{1F600}') and similar: scan to the quote.
        while self.pos < self.src.len() && self.src[self.pos] != b'\'' {
            self.bump_counting_lines();
        }
        if self.pos < self.src.len() {
            self.pos += 1; // closing quote
        }
        Kind::Char
    }

    /// Probes for `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#` at the current
    /// position; consumes and returns true only when one is present.
    fn raw_or_byte_string(&mut self) -> bool {
        let mut ahead = 1;
        if self.src[self.pos] == b'b' && self.peek(1) == Some(b'r') {
            ahead = 2;
        }
        // b"…" — plain byte string.
        if ahead == 1 && self.src[self.pos] == b'b' && self.peek(1) == Some(b'"') {
            self.pos += 1;
            self.quoted_string();
            return true;
        }
        if self.src[self.pos] == b'b' && ahead == 1 {
            return false; // identifier starting with b
        }
        // r / br followed by hashes then a quote → raw string.
        let mut hashes = 0;
        while self.peek(ahead + hashes) == Some(b'#') {
            hashes += 1;
        }
        if self.peek(ahead + hashes) != Some(b'"') {
            return false; // r#ident (raw identifier) or plain ident
        }
        self.pos += ahead + hashes + 1;
        // Scan for `"` followed by `hashes` hash characters.
        while self.pos < self.src.len() {
            if self.src[self.pos] == b'"' {
                let mut h = 0;
                while h < hashes && self.peek(1 + h) == Some(b'#') {
                    h += 1;
                }
                if h == hashes {
                    self.pos += 1 + hashes;
                    return true;
                }
            }
            self.bump_counting_lines();
        }
        true
    }

    /// Numeric literal, loosely: digits plus alphanumerics/underscores and
    /// a fractional part when the dot is not a range operator.
    fn number(&mut self) {
        while self
            .peek(0)
            .is_some_and(|c| c == b'_' || c.is_ascii_alphanumeric())
        {
            self.pos += 1;
        }
        // `1.5` is one number; `0..k` is a number then a range.
        if self.peek(0) == Some(b'.') && self.peek(1).is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
            while self
                .peek(0)
                .is_some_and(|c| c == b'_' || c.is_ascii_alphanumeric())
            {
                self.pos += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(Kind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_keywords_and_punct() {
        let toks = kinds("unsafe fn f(x: u32) {}");
        assert_eq!(toks[0], (Kind::Ident, "unsafe".into()));
        assert_eq!(toks[1], (Kind::Ident, "fn".into()));
        assert_eq!(toks[2], (Kind::Ident, "f".into()));
        assert!(toks.iter().any(|t| *t == (Kind::Punct, "{".into())));
    }

    #[test]
    fn code_inside_strings_is_not_code() {
        // `unsafe` and `HashMap` inside literals must stay Str tokens.
        let toks = lex(r#"let s = "unsafe { HashMap }";"#);
        assert!(!toks.iter().any(|t| t.is_ident("unsafe")));
        assert!(!toks.iter().any(|t| t.is_ident("HashMap")));
        assert_eq!(toks.iter().filter(|t| t.kind == Kind::Str).count(), 1);
    }

    #[test]
    fn raw_and_byte_strings() {
        for src in [
            r##"r"plain raw""##,
            r###"r#"one hash "quote" inside"#"###,
            r##"b"bytes""##,
            r###"br#"raw bytes"#"###,
        ] {
            let toks = lex(src);
            assert_eq!(toks.len(), 1, "{src}");
            assert_eq!(toks[0].kind, Kind::Str, "{src}");
            assert_eq!(toks[0].text, src, "{src}");
        }
        // `r#type` is a raw identifier, not a raw string.
        let toks = kinds("r#type");
        assert_eq!(toks, vec![(Kind::Ident, "r#type".into())]);
    }

    #[test]
    fn char_vs_lifetime() {
        let toks = kinds(r"'x' 'a '\n' 'static '_");
        assert_eq!(toks[0].0, Kind::Char);
        assert_eq!(toks[1], (Kind::Lifetime, "'a".into()));
        assert_eq!(toks[2].0, Kind::Char);
        assert_eq!(toks[3], (Kind::Lifetime, "'static".into()));
        assert_eq!(toks[4], (Kind::Lifetime, "'_".into()));
    }

    #[test]
    fn comments_keep_their_text_and_nest() {
        let toks = lex("// SAFETY: checked\n/* outer /* inner */ still outer */ fn");
        assert_eq!(toks[0].kind, Kind::LineComment);
        assert_eq!(toks[0].text, "// SAFETY: checked");
        assert_eq!(toks[1].kind, Kind::BlockComment);
        assert!(toks[1].text.ends_with("still outer */"));
        assert!(toks[2].is_ident("fn"));
    }

    #[test]
    fn byte_char_literals_are_single_tokens() {
        // `b'x'` must not leak a stray `b` identifier into the stream —
        // the unsafe-audit rule matches `ident (` call sites and a split
        // `b` + char would desynchronize it.
        let toks = kinds(r"b'x' b'\n' b'(' f(b',')");
        assert_eq!(toks[0], (Kind::Char, r"b'x'".into()));
        assert_eq!(toks[1], (Kind::Char, r"b'\n'".into()));
        assert_eq!(toks[2], (Kind::Char, "b'('".into()));
        // …and the surrounding call structure stays intact.
        assert_eq!(toks[3], (Kind::Ident, "f".into()));
        assert_eq!(toks[4], (Kind::Punct, "(".into()));
        assert_eq!(toks[5], (Kind::Char, "b','".into()));
        assert_eq!(toks[6], (Kind::Punct, ")".into()));
    }

    #[test]
    fn multiline_raw_strings_do_not_swallow_code() {
        // A raw string spanning lines (fixture-style embedded source) must
        // end exactly at its hash fence, leaving the following fn visible.
        let src = "let s = r##\"fn fake() { a\"# }\"##;\nfn real() {}";
        let toks = lex(src);
        assert!(!toks.iter().any(|t| t.is_ident("fake")));
        let real = toks.iter().position(|t| t.is_ident("real")).unwrap();
        assert!(toks[real - 1].is_ident("fn"));
        assert_eq!(toks[real].line, 2);
    }

    #[test]
    fn nested_block_comment_then_fn_signature() {
        // Graph construction scans `fn name ( … )` sequences; a nested
        // block comment between items must not hide or merge them.
        let src = "fn a() {}\n/* dead: /* fn b() {} */ end */\nfn c() {}";
        let toks = lex(src);
        assert!(toks.iter().any(|t| t.is_ident("a")));
        assert!(!toks.iter().any(|t| t.is_ident("b")));
        assert_eq!(toks.iter().find(|t| t.is_ident("c")).unwrap().line, 3);
    }

    #[test]
    fn lifetime_annotated_fn_signature() {
        // `fn f<'a>(x: &'a str) -> &'a str` — lifetimes must lex as
        // Lifetime tokens (never Char), keeping the `->` return arrow and
        // parameter parens aligned for signature parsing.
        let toks = lex("fn longest<'a>(x: &'a str, y: &'a str) -> &'a str { x }");
        assert_eq!(toks.iter().filter(|t| t.kind == Kind::Lifetime).count(), 4);
        assert!(!toks.iter().any(|t| t.kind == Kind::Char));
        let arrow = toks.iter().position(|t| t.is_punct('-')).unwrap();
        assert!(toks[arrow + 1].is_punct('>'));
        assert!(toks[arrow + 2].is_punct('&'));
    }

    #[test]
    fn numbers_and_ranges() {
        // `1.5` is one number; `0..k` must not swallow the range dots.
        let toks = kinds("1.5 0..k 0xff 1_000");
        assert_eq!(toks[0], (Kind::Num, "1.5".into()));
        assert_eq!(toks[1], (Kind::Num, "0".into()));
        assert_eq!(toks[2], (Kind::Punct, ".".into()));
        assert_eq!(toks[3], (Kind::Punct, ".".into()));
        assert_eq!(toks[4], (Kind::Ident, "k".into()));
        assert_eq!(toks[5], (Kind::Num, "0xff".into()));
        assert_eq!(toks[6], (Kind::Num, "1_000".into()));
    }

    #[test]
    fn line_numbers_survive_multiline_tokens() {
        let src = "a\n/*\n\n*/\nb\nr#\"x\ny\"#\nc";
        let toks = lex(src);
        let find = |name: &str| toks.iter().find(|t| t.is_ident(name)).unwrap().line;
        assert_eq!(find("a"), 1);
        assert_eq!(find("b"), 5);
        assert_eq!(find("c"), 8);
    }

    #[test]
    fn unterminated_constructs_do_not_loop() {
        // Malformed input degrades to one trailing token, never a hang.
        for src in ["\"never closed", "/* never closed", "r#\"never closed"] {
            let toks = lex(src);
            assert_eq!(toks.len(), 1, "{src}");
        }
    }
}
