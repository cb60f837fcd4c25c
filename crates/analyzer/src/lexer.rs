//! A lightweight Rust lexer — just enough structure for the `sslint` rules.
//!
//! This is deliberately *not* a full Rust parser (the build environment has
//! no crates.io access, so `syn` is unavailable, and the rules only need
//! token shapes): it splits source into identifier / number / string / punct
//! tokens with line numbers, strips comments (harvesting `sslint:`
//! annotations from line comments on the way), and knows the handful of
//! lexical subtleties that would otherwise corrupt a token stream — nested
//! block comments, raw/byte strings, char literals vs. lifetimes, and
//! multi-character operators (so `==` is never mistaken for an assignment).

/// Token classes the rules distinguish.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    Ident,
    Number,
    Str,
    Char,
    Punct,
}

/// One token with its 1-based source line.
#[derive(Clone, Debug)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
}

/// One parsed `// sslint: allow(rule, reason)` annotation.
#[derive(Clone, Debug)]
pub struct Allow {
    pub line: u32,
    pub rule: String,
    pub reason: String,
}

/// A malformed `sslint:` comment (missing reason, unparsable shape).
#[derive(Clone, Debug)]
pub struct BadAllow {
    pub line: u32,
    pub message: String,
}

/// Lexer output: the token stream plus harvested annotations.
#[derive(Debug, Default)]
pub struct Lexed {
    pub toks: Vec<Tok>,
    pub allows: Vec<Allow>,
    pub bad_allows: Vec<BadAllow>,
}

impl Lexed {
    fn push(&mut self, kind: TokKind, text: String, line: u32) {
        self.toks.push(Tok { kind, text, line });
    }
}

/// Lexes one source file.
pub fn lex(src: &str) -> Lexed {
    let bytes = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < bytes.len() {
        let c = bytes[i];
        let start = i;
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                i = line_end(bytes, i);
                parse_annotation(&src[start..i], line, &mut out);
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => i = skip_block_comment(bytes, i, &mut line),
            b'"' => {
                i = lex_string(bytes, i, &mut line);
                out.push(TokKind::Str, String::new(), line);
            }
            b'r' | b'b' if raw_string_start(bytes, i).is_some() => {
                let (body_start, hashes) = raw_string_start(bytes, i).unwrap();
                i = lex_raw_string(bytes, body_start, hashes, &mut line);
                out.push(TokKind::Str, String::new(), line);
            }
            // Lifetime: skip the tick, let the ident lex normally.
            b'\'' if is_lifetime(bytes, i) => i += 1,
            b'\'' => {
                i = lex_char(bytes, i, &mut line);
                out.push(TokKind::Char, String::new(), line);
            }
            _ if c.is_ascii_alphabetic() || c == b'_' => {
                i = word_end(bytes, i);
                out.push(TokKind::Ident, src[start..i].to_string(), line);
            }
            _ if c.is_ascii_digit() => {
                i = number_end(bytes, i);
                out.push(TokKind::Number, src[start..i].to_string(), line);
            }
            _ => {
                let punct = punct_at(&src[i..]);
                i += punct.len();
                out.push(TokKind::Punct, punct.to_string(), line);
            }
        }
    }
    out
}

/// Index of the `\n` ending the line that `i` is on, or the end of input.
fn line_end(bytes: &[u8], i: usize) -> usize {
    let rest = bytes[i..].iter().position(|&b| b == b'\n');
    rest.map_or(bytes.len(), |n| i + n)
}

/// Skips a (nested) block comment opening at `i`; returns the index just
/// past its close.
fn skip_block_comment(bytes: &[u8], mut i: usize, line: &mut u32) -> usize {
    let mut depth = 1usize;
    i += 2;
    while i < bytes.len() && depth > 0 {
        if bytes[i] == b'\n' {
            *line += 1;
            i += 1;
        } else if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
            depth += 1;
            i += 2;
        } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
            depth -= 1;
            i += 2;
        } else {
            i += 1;
        }
    }
    i
}

/// Whether the tick at `i` starts a lifetime (`'a`) rather than a char
/// literal (`'x'`, `'\n'`): a word follows it and no tick closes the word.
fn is_lifetime(bytes: &[u8], i: usize) -> bool {
    bytes
        .get(i + 1)
        .is_some_and(|&b| b.is_ascii_alphabetic() || b == b'_')
        && bytes.get(word_end(bytes, i + 1)) != Some(&b'\'')
}

/// Lexes a char literal opening at `i`; returns the index just past the
/// closing quote.
fn lex_char(bytes: &[u8], i: usize, line: &mut u32) -> usize {
    let mut j = i + 1;
    while j < bytes.len() {
        match bytes[j] {
            b'\\' => j += 2,
            b'\'' => return j + 1,
            b'\n' => {
                *line += 1;
                j += 1;
            }
            _ => j += 1,
        }
    }
    j
}

/// Index just past the run of identifier characters starting at `i`.
fn word_end(bytes: &[u8], mut i: usize) -> usize {
    while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
        i += 1;
    }
    i
}

/// Index just past the number starting at `i`, with its fractional part —
/// but never swallowing a `..` range operator.
fn number_end(bytes: &[u8], i: usize) -> usize {
    let i = word_end(bytes, i);
    if bytes.get(i) == Some(&b'.') && bytes.get(i + 1).is_some_and(u8::is_ascii_digit) {
        word_end(bytes, i + 1)
    } else {
        i
    }
}

/// The punctuation token at the start of `rest`: the longest multi-character
/// operator it starts with, else its first character.
fn punct_at(rest: &str) -> &str {
    let len = match MULTI_PUNCTS.iter().find(|p| rest.starts_with(**p)) {
        Some(p) => p.len(),
        None => rest.chars().next().expect("non-empty rest").len_utf8(),
    };
    &rest[..len]
}

/// Multi-character operators, longest first so maximal munch holds.
const MULTI_PUNCTS: &[&str] = &[
    "<<=", ">>=", "..=", "...", "::", "->", "=>", "==", "!=", "<=", ">=", "+=", "-=", "*=", "/=",
    "%=", "&=", "|=", "^=", "&&", "||", "..", "<<", ">>",
];

/// If position `i` starts a raw or byte string (`r"`, `br#"`, `b"`, …),
/// returns `(index of opening quote + 1, hash count)`.
fn raw_string_start(bytes: &[u8], i: usize) -> Option<(usize, usize)> {
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
    }
    let raw = bytes.get(j) == Some(&b'r');
    if raw {
        j += 1;
    }
    let mut hashes = 0usize;
    while bytes.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    if bytes.get(j) != Some(&b'"') || (!raw && hashes > 0) {
        return None;
    }
    if !raw && hashes == 0 && j == i {
        return None; // plain `"` is handled by the string arm
    }
    if !raw {
        // `b"..."`: an escaped byte string; lex like a normal string from the
        // quote (hash count 0 with escapes handled by caller convention).
        return Some((j, usize::MAX));
    }
    Some((j + 1, hashes))
}

/// Lexes a normal (escaped) string starting at the opening quote; returns the
/// index just past the closing quote.
fn lex_string(bytes: &[u8], start: usize, line: &mut u32) -> usize {
    let mut i = start + 1;
    while i < bytes.len() {
        match bytes[i] {
            // An escape may hide a newline (`\<newline>` continuation).
            b'\\' => {
                if bytes.get(i + 1) == Some(&b'\n') {
                    *line += 1;
                }
                i += 2;
            }
            b'"' => return i + 1,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Lexes a raw string whose body starts at `body_start` with `hashes` hash
/// marks (or a byte string when `hashes == usize::MAX`); returns the index
/// just past the terminator.
fn lex_raw_string(bytes: &[u8], body_start: usize, hashes: usize, line: &mut u32) -> usize {
    if hashes == usize::MAX {
        return lex_string(bytes, body_start, line);
    }
    let mut i = body_start;
    while i < bytes.len() {
        if bytes[i] == b'\n' {
            *line += 1;
            i += 1;
            continue;
        }
        if bytes[i] == b'"' {
            let mut k = 0usize;
            while k < hashes && bytes.get(i + 1 + k) == Some(&b'#') {
                k += 1;
            }
            if k == hashes {
                return i + 1 + hashes;
            }
        }
        i += 1;
    }
    i
}

/// Parses a `// sslint: allow(rule, reason)` comment, if present.
///
/// Only comments whose body *starts* with `sslint:` (after the slashes and
/// doc-comment markers) are annotations — prose that merely mentions the
/// syntax, like this sentence, is not.
fn parse_annotation(comment: &str, line: u32, out: &mut Lexed) {
    let body = comment
        .trim_start_matches('/')
        .trim_start_matches('!')
        .trim_start();
    let Some(body) = body.strip_prefix("sslint:") else {
        return;
    };
    let body = body.trim();
    let Some(inner) = body
        .strip_prefix("allow(")
        .and_then(|r| r.rfind(')').map(|end| &r[..end]))
    else {
        out.bad_allows.push(BadAllow {
            line,
            message: format!("unparsable sslint annotation: `{}`", body),
        });
        return;
    };
    let Some((rule, reason)) = inner.split_once(',') else {
        out.bad_allows.push(BadAllow {
            line,
            message: "sslint allow is missing a reason: use allow(rule, reason)".into(),
        });
        return;
    };
    let rule = rule.trim().to_string();
    let reason = reason.trim().trim_matches('"').trim().to_string();
    if reason.is_empty() {
        out.bad_allows.push(BadAllow {
            line,
            message: format!("sslint allow({rule}, …) has an empty reason"),
        });
        return;
    }
    out.allows.push(Allow { line, rule, reason });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .toks
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_strings_and_lifetimes_do_not_leak_tokens() {
        let src = r##"
            // HashMap in a comment
            /* nested /* HashMap */ still comment */
            let s = "HashMap::new()";
            let r = r#"HashMap"#;
            fn f<'a>(x: &'a str) -> char { 'h' }
        "##;
        let ids = idents(src);
        assert!(!ids.contains(&"HashMap".to_string()), "{ids:?}");
        assert!(ids.contains(&"char".to_string()));
        // The lifetime `'a` surfaces as a plain ident, not a char literal.
        assert!(ids.iter().filter(|t| *t == "a").count() >= 2);
    }

    #[test]
    fn multi_char_puncts_are_single_tokens() {
        let toks = lex("a == b; c += 1; d => e; f != g;").toks;
        let puncts: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Punct)
            .map(|t| t.text.as_str())
            .collect();
        assert!(puncts.contains(&"=="));
        assert!(puncts.contains(&"+="));
        assert!(puncts.contains(&"=>"));
        assert!(puncts.contains(&"!="));
        assert!(!puncts.contains(&"="));
    }

    #[test]
    fn numbers_do_not_swallow_ranges() {
        let toks = lex("for i in 0..n {}").toks;
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Punct && t.text == ".."));
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Number && t.text == "0"));
    }

    #[test]
    fn annotations_parse_with_reason() {
        let l = lex("let x = 1; // sslint: allow(unordered-iter, eviction order is perf-only)\n");
        assert_eq!(l.allows.len(), 1);
        assert_eq!(l.allows[0].rule, "unordered-iter");
        assert!(l.allows[0].reason.contains("perf-only"));
        assert!(l.bad_allows.is_empty());
    }

    #[test]
    fn annotation_without_reason_is_rejected() {
        let l = lex("// sslint: allow(unordered-iter)\n");
        assert!(l.allows.is_empty());
        assert_eq!(l.bad_allows.len(), 1);
        let l2 = lex("// sslint: allow(unordered-iter, )\n");
        assert_eq!(l2.bad_allows.len(), 1);
    }

    #[test]
    fn lines_are_tracked_through_multiline_constructs() {
        let src = "let a = 1;\n/* two\nlines */\nlet b = 2;\n";
        let toks = lex(src).toks;
        let b = toks.iter().find(|t| t.text == "b").unwrap();
        assert_eq!(b.line, 4);
    }
}
