//! A small token-level Rust lexer, shared by every check.
//!
//! The lexer is deliberately not a full Rust parser: it produces a flat,
//! line-mapped token stream that is *comment- and string-aware* — the two
//! properties the checks actually need (a `send` or an `Ordering::Relaxed`
//! inside a string literal or a comment must never fire a finding). It
//! handles:
//!
//! * line comments (`//`, `///`, `//!`) and nested block comments,
//!   collected separately so pragma comments stay inspectable;
//! * string literals with escapes, raw strings (`r"…"`, `r#"…"#`, any hash
//!   depth), byte/C-string prefixes (`b"…"`, `br#"…"#`, `c"…"`);
//! * char literals vs lifetimes (`'a'` vs `'a`);
//! * identifiers, numbers, and single-char punctuation (so `::` is two `:`
//!   tokens — see [`match_seq`] for sequence matching that papers over it).

/// What kind of lexeme a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`fn`, `Instant`, `unwrap`, …).
    Ident,
    /// A lifetime (`'a`, `'static`) — distinct from char literals.
    Lifetime,
    /// A numeric literal (`42`, `0x9E37`, `1_000`).
    Num,
    /// A string literal of any flavour (plain, raw, byte, C). The text is
    /// the literal's *contents*, delimiters stripped.
    Str,
    /// A char literal (`'x'`, `'\n'`). Text is the contents.
    Char,
    /// A single punctuation character (`.`, `:`, `(`, `{`, …).
    Punct,
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Token {
    /// The token's kind.
    pub kind: TokenKind,
    /// The token's text (see [`TokenKind`] for what the text contains).
    pub text: String,
    /// 1-based line the token *starts* on.
    pub line: u32,
}

/// One comment, collected out-of-band from the token stream.
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// The comment's text without the `//` / `/*` delimiters.
    pub text: String,
}

/// The result of lexing one source file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// The token stream, comments and whitespace stripped.
    pub tokens: Vec<Token>,
    /// Every comment, in source order.
    pub comments: Vec<Comment>,
}

/// Lexes `src` into a token stream plus its comments.
pub fn lex(src: &str) -> Lexed {
    let bytes: Vec<char> = src.chars().collect();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;
    let n = bytes.len();

    // Counts newlines in a consumed span so multi-line tokens keep the map.
    fn advance_lines(chars: &[char], from: usize, to: usize, line: &mut u32) {
        *line += chars[from..to].iter().filter(|&&c| c == '\n').count() as u32;
    }

    while i < n {
        let c = bytes[i];
        // Whitespace.
        if c.is_whitespace() {
            if c == '\n' {
                line += 1;
            }
            i += 1;
            continue;
        }
        // Line comment.
        if c == '/' && i + 1 < n && bytes[i + 1] == '/' {
            let start = i + 2;
            let mut j = start;
            while j < n && bytes[j] != '\n' {
                j += 1;
            }
            out.comments.push(Comment {
                line,
                text: bytes[start..j].iter().collect(),
            });
            i = j;
            continue;
        }
        // Block comment (nested).
        if c == '/' && i + 1 < n && bytes[i + 1] == '*' {
            let start_line = line;
            let start = i + 2;
            let mut depth = 1usize;
            let mut j = start;
            while j < n && depth > 0 {
                if bytes[j] == '/' && j + 1 < n && bytes[j + 1] == '*' {
                    depth += 1;
                    j += 2;
                } else if bytes[j] == '*' && j + 1 < n && bytes[j + 1] == '/' {
                    depth -= 1;
                    j += 2;
                } else {
                    j += 1;
                }
            }
            advance_lines(&bytes, i, j, &mut line);
            let end = j.saturating_sub(2).max(start);
            out.comments.push(Comment {
                line: start_line,
                text: bytes[start..end].iter().collect(),
            });
            i = j;
            continue;
        }
        // Raw / byte / C string prefixes and plain identifiers.
        if c.is_alphabetic() || c == '_' {
            let start = i;
            let mut j = i;
            while j < n && (bytes[j].is_alphanumeric() || bytes[j] == '_') {
                j += 1;
            }
            let ident: String = bytes[start..j].iter().collect();
            // A string-literal prefix directly followed by `"` or `r#`-style
            // hashes is a literal, not an identifier.
            let is_str_prefix = matches!(ident.as_str(), "r" | "b" | "br" | "rb" | "c" | "cr");
            if is_str_prefix && j < n && (bytes[j] == '"' || bytes[j] == '#') {
                let raw = ident.contains('r');
                let (text, end) = if raw {
                    lex_raw_string(&bytes, j)
                } else {
                    lex_string(&bytes, j)
                };
                let start_line = line;
                advance_lines(&bytes, j, end, &mut line);
                out.tokens.push(Token {
                    kind: TokenKind::Str,
                    text,
                    line: start_line,
                });
                i = end;
                continue;
            }
            out.tokens.push(Token {
                kind: TokenKind::Ident,
                text: ident,
                line,
            });
            i = j;
            continue;
        }
        // Plain string literal.
        if c == '"' {
            let (text, end) = lex_string(&bytes, i);
            let start_line = line;
            advance_lines(&bytes, i, end, &mut line);
            out.tokens.push(Token {
                kind: TokenKind::Str,
                text,
                line: start_line,
            });
            i = end;
            continue;
        }
        // Lifetime or char literal.
        if c == '\'' {
            // `'ident` not followed by a closing quote is a lifetime.
            if i + 1 < n && (bytes[i + 1].is_alphabetic() || bytes[i + 1] == '_') {
                let mut j = i + 1;
                while j < n && (bytes[j].is_alphanumeric() || bytes[j] == '_') {
                    j += 1;
                }
                if j < n && bytes[j] == '\'' && j == i + 2 {
                    // Exactly one ident char then a quote: `'a'` is a char.
                    out.tokens.push(Token {
                        kind: TokenKind::Char,
                        text: bytes[i + 1..j].iter().collect(),
                        line,
                    });
                    i = j + 1;
                    continue;
                }
                out.tokens.push(Token {
                    kind: TokenKind::Lifetime,
                    text: bytes[i + 1..j].iter().collect(),
                    line,
                });
                i = j;
                continue;
            }
            // Char literal with escapes: `'\n'`, `'\''`, `'"'`.
            let mut j = i + 1;
            while j < n {
                if bytes[j] == '\\' {
                    j += 2;
                    continue;
                }
                if bytes[j] == '\'' {
                    j += 1;
                    break;
                }
                j += 1;
            }
            let start_line = line;
            advance_lines(&bytes, i, j.min(n), &mut line);
            out.tokens.push(Token {
                kind: TokenKind::Char,
                text: bytes[i + 1..j.saturating_sub(1).max(i + 1)]
                    .iter()
                    .collect(),
                line: start_line,
            });
            i = j;
            continue;
        }
        // Number: digits plus alphanumerics/underscores (covers hex, suffixes).
        if c.is_ascii_digit() {
            let start = i;
            let mut j = i;
            while j < n && (bytes[j].is_alphanumeric() || bytes[j] == '_') {
                j += 1;
            }
            out.tokens.push(Token {
                kind: TokenKind::Num,
                text: bytes[start..j].iter().collect(),
                line,
            });
            i = j;
            continue;
        }
        // Everything else: one punctuation char per token.
        out.tokens.push(Token {
            kind: TokenKind::Punct,
            text: c.to_string(),
            line,
        });
        i += 1;
    }
    out
}

/// Lexes a plain (escaped) string starting at the opening `"`; returns the
/// contents and the index one past the closing quote.
fn lex_string(bytes: &[char], open: usize) -> (String, usize) {
    let n = bytes.len();
    let mut j = open + 1;
    let mut text = String::new();
    while j < n {
        match bytes[j] {
            '\\' => {
                if j + 1 < n {
                    text.push(bytes[j + 1]);
                }
                j += 2;
            }
            '"' => return (text, j + 1),
            other => {
                text.push(other);
                j += 1;
            }
        }
    }
    (text, n)
}

/// Lexes a raw string starting at the first `#` or `"` after the `r`
/// prefix; returns the contents and the index one past the closing
/// delimiter.
fn lex_raw_string(bytes: &[char], mut j: usize) -> (String, usize) {
    let n = bytes.len();
    let mut hashes = 0usize;
    while j < n && bytes[j] == '#' {
        hashes += 1;
        j += 1;
    }
    if j >= n || bytes[j] != '"' {
        // Not actually a raw string (e.g. `r#ident` raw identifier): treat
        // the consumed hashes as empty text and resume after them.
        return (String::new(), j);
    }
    j += 1;
    let start = j;
    while j < n {
        if bytes[j] == '"' {
            let mut k = j + 1;
            let mut seen = 0usize;
            while k < n && bytes[k] == '#' && seen < hashes {
                seen += 1;
                k += 1;
            }
            if seen == hashes {
                return (bytes[start..j].iter().collect(), k);
            }
        }
        j += 1;
    }
    (bytes[start..].iter().collect(), n)
}

/// Matches `pattern` against the token texts starting at `at`, requiring
/// every pattern element to be a non-`Str`, non-`Char` token (so patterns
/// never match inside literals). Multi-char operators are written as their
/// chars: `::` is `":", ":"`.
pub fn match_seq(tokens: &[Token], at: usize, pattern: &[&str]) -> bool {
    if at + pattern.len() > tokens.len() {
        return false;
    }
    pattern.iter().enumerate().all(|(k, want)| {
        let t = &tokens[at + k];
        !matches!(t.kind, TokenKind::Str | TokenKind::Char) && t.text == *want
    })
}

/// The token's text for structural matching: literal tokens (strings and
/// chars) yield `""` so that delimiter and keyword matching never fires on
/// literal *content* — `'{'` and `"}"` are data, not structure.
pub fn structural(t: &Token) -> &str {
    match t.kind {
        TokenKind::Str | TokenKind::Char => "",
        _ => &t.text,
    }
}

/// Index of the matching close delimiter for the open delimiter at `open`
/// (`(`/`)`, `{`/`}`, `[`/`]`), or `tokens.len()` if `open` is not a punct
/// open delimiter or the stream is unbalanced from it.
pub fn matching_close(tokens: &[Token], open: usize) -> usize {
    let (o, c) = match structural(&tokens[open]) {
        "(" => ("(", ")"),
        "{" => ("{", "}"),
        "[" => ("[", "]"),
        _ => return tokens.len(),
    };
    let mut depth = 0usize;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        if t.kind == TokenKind::Punct {
            if t.text == o {
                depth += 1;
            } else if t.text == c {
                // A close with nothing open means `open` was not a punct
                // delimiter (or the slice is torn): report unbalanced
                // rather than underflowing.
                let Some(d) = depth.checked_sub(1) else {
                    return tokens.len();
                };
                depth = d;
                if depth == 0 {
                    return k;
                }
            }
        }
    }
    tokens.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<(TokenKind, String)> {
        lex(src)
            .tokens
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn comments_and_strings_do_not_produce_ident_tokens() {
        let src = r##"
// Instant::now() in a comment
/* block Instant::now() */
let s = "Instant::now()";
let r = r#"Instant::now()"#;
let real = Instant::now();
"##;
        let lexed = lex(src);
        let instants: Vec<&Token> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Ident && t.text == "Instant")
            .collect();
        assert_eq!(instants.len(), 1);
        assert_eq!(instants[0].line, 6);
        assert_eq!(lexed.comments.len(), 2);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = texts("fn f<'a>(x: &'a str) -> char { 'x' }");
        assert!(toks.contains(&(TokenKind::Lifetime, "a".into())));
        assert!(toks.contains(&(TokenKind::Char, "x".into())));
    }

    #[test]
    fn escaped_quotes_and_raw_hashes_terminate_correctly() {
        let toks = texts(r##"let a = "he \"said\""; let b = r#"a "quoted" b"#; after"##);
        let strs: Vec<&String> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Str)
            .map(|(_, s)| s)
            .collect();
        assert_eq!(strs.len(), 2);
        assert_eq!(strs[0], "he \"said\"");
        assert_eq!(strs[1], "a \"quoted\" b");
        assert!(toks.contains(&(TokenKind::Ident, "after".into())));
    }

    #[test]
    fn nested_block_comments_close_at_depth_zero() {
        let toks = texts("before /* a /* nested */ still comment */ after");
        assert_eq!(
            toks,
            vec![
                (TokenKind::Ident, "before".into()),
                (TokenKind::Ident, "after".into())
            ]
        );
    }

    #[test]
    fn match_seq_and_matching_close_pair_up() {
        let lexed = lex("x.try_send(ShardMsg::Barrier(seq)).ok();");
        let i = lexed
            .tokens
            .iter()
            .position(|t| t.text == "try_send")
            .expect("try_send token");
        assert!(match_seq(&lexed.tokens, i, &["try_send", "("]));
        let close = matching_close(&lexed.tokens, i + 1);
        assert_eq!(lexed.tokens[close].text, ")");
        // The close matches the outer paren, past the nested `(seq)`.
        assert_eq!(lexed.tokens[close + 1].text, ".");
    }

    #[test]
    fn multi_line_tokens_keep_the_line_map() {
        let src = "a\n\"two\nline\"\nb";
        let lexed = lex(src);
        assert_eq!(lexed.tokens[0].line, 1);
        assert_eq!(lexed.tokens[1].line, 2);
        assert_eq!(
            lexed.tokens[2].line, 4,
            "line counter advanced past the literal"
        );
    }
}
