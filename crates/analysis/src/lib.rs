//! # swift-analysis
//!
//! A self-contained static-analysis pass over the SWIFT runtime: the checks
//! that need a parser of its sources because neither the compiler, clippy
//! nor a test can express them ("barriers complete in order", "lifecycle
//! messages are never shed", "data paths are bounded", "handshake flags are
//! Release/Acquire-paired").
//!
//! The layers:
//!
//! 1. [`lexer`] — a token-level Rust lexer (comment/string/raw-string aware,
//!    line-mapped) shared by every check;
//! 2. [`parser`] — an item/fn-granularity AST over the token stream (enums,
//!    atomic fields, fn bodies as statement/call trees, match arms) for the
//!    semantic checks;
//! 3. [`topology`] — a concurrency-topology extractor that parses the
//!    runtime's channel construction into a thread/channel graph, emits DOT
//!    and JSON, and statically checks deadlock-freedom-shaped properties
//!    (no cycle of blocking sends, lock-order acyclicity, bounded data
//!    channels);
//! 4. [`protocol`] — a message-protocol verifier that checks every
//!    `ShardMsg`/`ApplierMsg` send/recv site against the declared automaton
//!    in `crates/analysis/protocol/runtime.protocol` and emits it as
//!    `protocol.{dot,json}`;
//! 5. [`atomics`] — an atomic-ordering auditor that classifies every atomic
//!    op into a role (flag/watermark/gauge/counter/statistic) and enforces
//!    the ordering rule the role implies.
//!
//! A finding is exempted by a `// swift-lint: allow(<rule>) -- <reason>`
//! pragma on its line or the line above; [`check_pragmas`] reports every
//! pragma that is malformed, names an unknown rule or gives no reason.
//!
//! The repo's other invariants are enforced by running them: the
//! allocation-free hot paths by `crates/core/tests/alloc_free_event_path.rs`
//! (a counting global allocator), the clock and thread discipline by
//! clippy's `disallowed-methods` (root `clippy.toml`), bare unwraps by
//! `clippy::unwrap_used` at the library crate roots.
//!
//! Run it with `cargo run -p swift-analysis --release -- check` (add
//! `--json` for the findings on stdout). No external dependencies: the
//! build environment is offline.

#![warn(clippy::unwrap_used)]

pub mod atomics;
pub mod lexer;
pub mod parser;
pub mod protocol;
pub mod topology;

use lexer::{lex, matching_close, Comment, Lexed, Token, TokenKind};
use std::fmt;
use std::path::{Path, PathBuf};

/// Rule key: malformed or unknown pragma.
pub const RULE_PRAGMA: &str = "pragma";
/// Rule key: message-protocol violation against the declared automaton
/// (spec drift, missed broadcast, a shed lifecycle message, data send after
/// a terminal message, ack/reply/quorum breakage). Checked by [`protocol`].
pub const RULE_PROTOCOL: &str = "protocol";
/// Rule key: wildcard `_` match arm on a protocol enum. Checked by
/// [`protocol`].
pub const RULE_PROTOCOL_WILDCARD: &str = "protocol-wildcard";
/// Rule key: atomic-ordering violation (a handshake flag without
/// Release/Acquire pairing, a channel-edge proof, or a pragma; or an
/// unclassifiable op mix). Checked by [`atomics`].
pub const RULE_ATOMIC_ORDERING: &str = "atomic-ordering";
/// Rule key: the analyzer's own runtime exceeded the `--budget-ms` cap.
pub const RULE_BUDGET: &str = "budget";

/// Every rule key a pragma may name in `allow(...)`.
pub const KNOWN_RULES: &[&str] = &[RULE_PROTOCOL, RULE_PROTOCOL_WILDCARD, RULE_ATOMIC_ORDERING];

/// One finding, printed rustc-style as `path:line: rule: message`.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The rule key that fired (e.g. `protocol`, `topology`).
    pub rule: &'static str,
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable message naming the violated invariant.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// A parsed `// swift-lint: allow(<rule>) -- <reason>` pragma.
#[derive(Debug, Clone)]
pub struct Pragma {
    /// Line the pragma comment starts on. The pragma suppresses findings of
    /// `rule` on this line and the next (so it can trail the offending
    /// expression or sit on its own line above it).
    pub line: u32,
    /// The rule key the pragma allows.
    pub rule: String,
    /// The justification after `--` (empty string if missing — itself a
    /// finding, see [`check_pragmas`]).
    pub reason: String,
}

/// The span of one `fn` item: its name and the lines/token range of its
/// body (innermost-wins for nested functions).
#[derive(Debug, Clone)]
pub struct FnSpan {
    /// The function's name.
    pub name: String,
    /// Token index of the `fn` keyword.
    pub start_tok: usize,
    /// Token index of the body's closing `}` (or the `;` of a bodiless
    /// signature).
    pub end_tok: usize,
    /// 1-based first line.
    pub start_line: u32,
    /// 1-based last line.
    pub end_line: u32,
}

/// One lexed + annotated source file, ready for the checks.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// The token stream.
    pub tokens: Vec<Token>,
    /// Every comment.
    pub comments: Vec<Comment>,
    /// Parsed `swift-lint` pragmas.
    pub pragmas: Vec<Pragma>,
    /// Closed line ranges covered by `#[cfg(test)]` / `#[test]` items —
    /// checks skip findings inside them.
    pub test_ranges: Vec<(u32, u32)>,
    /// Function spans, in source order.
    pub fns: Vec<FnSpan>,
}

impl SourceFile {
    /// Lexes and annotates `src` as workspace-relative file `rel`.
    pub fn parse(rel: impl Into<String>, src: &str) -> SourceFile {
        let Lexed { tokens, comments } = lex(src);
        let pragmas = parse_pragmas(&comments);
        let test_ranges = find_test_ranges(&tokens);
        let fns = find_fns(&tokens);
        SourceFile {
            rel: rel.into(),
            tokens,
            comments,
            pragmas,
            test_ranges,
            fns,
        }
    }

    /// `true` if `line` is inside a `#[cfg(test)]` module or `#[test]` fn.
    pub fn in_test(&self, line: u32) -> bool {
        self.test_ranges
            .iter()
            .any(|&(a, b)| a <= line && line <= b)
    }

    /// `true` if a pragma for `rule` covers `line` (same line or the line
    /// directly below the pragma).
    pub fn allowed(&self, rule: &str, line: u32) -> bool {
        self.pragmas.iter().any(|p| {
            p.rule == rule && !p.reason.is_empty() && (p.line == line || p.line + 1 == line)
        })
    }

    /// The innermost function span containing `line`, if any.
    pub fn enclosing_fn(&self, line: u32) -> Option<&FnSpan> {
        self.fns
            .iter()
            .filter(|f| f.start_line <= line && line <= f.end_line)
            .min_by_key(|f| f.end_line - f.start_line)
    }
}

/// Extracts `swift-lint:` pragmas from the comment stream. Only plain `//`
/// comments carry pragmas — doc comments (`///`, `//!`, whose text starts
/// with a `/` or `!` after the `//` delimiter) are documentation and may
/// *mention* the syntax without enacting it.
fn parse_pragmas(comments: &[Comment]) -> Vec<Pragma> {
    let mut out = Vec::new();
    for c in comments {
        if c.text.starts_with('/') || c.text.starts_with('!') {
            continue;
        }
        let Some(at) = c.text.find("swift-lint:") else {
            continue;
        };
        let rest = c.text[at + "swift-lint:".len()..].trim();
        let Some(inner) = rest.strip_prefix("allow(").and_then(|r| r.split_once(')')) else {
            // Malformed pragma: record with empty rule so check_pragmas can
            // flag it.
            out.push(Pragma {
                line: c.line,
                rule: String::new(),
                reason: String::new(),
            });
            continue;
        };
        let (rule, tail) = inner;
        let reason = tail
            .trim()
            .strip_prefix("--")
            .map(|r| r.trim().to_string())
            .unwrap_or_default();
        out.push(Pragma {
            line: c.line,
            rule: rule.trim().to_string(),
            reason,
        });
    }
    out
}

/// `pragma`: every `swift-lint` pragma of `file` must be
/// `allow(<known-rule>) -- <reason>` — malformed pragmas, unknown rules and
/// missing reasons are findings so a typo cannot silently disable a check.
pub fn check_pragmas(file: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    for p in &file.pragmas {
        let message = if p.rule.is_empty() {
            "malformed `swift-lint` pragma — expected \
             `// swift-lint: allow(<rule>) -- <reason>`"
                .to_string()
        } else if !KNOWN_RULES.contains(&p.rule.as_str()) {
            format!(
                "unknown rule `{}` in `swift-lint` pragma — known rules: {}",
                p.rule,
                KNOWN_RULES.join(", ")
            )
        } else if p.reason.is_empty() {
            format!(
                "`swift-lint: allow({})` without a `-- <reason>` justification suppresses \
                 nothing — state why the exemption is sound",
                p.rule
            )
        } else {
            continue;
        };
        out.push(Finding {
            rule: RULE_PRAGMA,
            path: file.rel.clone(),
            line: p.line,
            message,
        });
    }
    out
}

/// Finds the line ranges of `#[cfg(test)]` items and `#[test]` functions by
/// brace-matching the item that follows the attribute.
fn find_test_ranges(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        let is_cfg_test = lexer::match_seq(tokens, i, &["#", "[", "cfg", "(", "test", ")", "]"]);
        let is_test_attr = lexer::match_seq(tokens, i, &["#", "[", "test", "]"]);
        if !(is_cfg_test || is_test_attr) {
            i += 1;
            continue;
        }
        let start_line = tokens[i].line;
        let mut j = i + if is_cfg_test { 7 } else { 4 };
        // Skip any further attributes between this one and the item.
        while j < tokens.len()
            && tokens[j].text == "#"
            && tokens.get(j + 1).is_some_and(|t| t.text == "[")
        {
            j = matching_close(tokens, j + 1) + 1;
        }
        // The item ends at its matching `}`, or at `;` for bodiless items.
        let mut end = None;
        let mut k = j;
        while k < tokens.len() {
            match tokens[k].text.as_str() {
                "{" => {
                    end = Some(matching_close(tokens, k));
                    break;
                }
                ";" => {
                    end = Some(k);
                    break;
                }
                _ => k += 1,
            }
        }
        if let Some(end) = end.filter(|&e| e < tokens.len()) {
            out.push((start_line, tokens[end].line));
            i = end + 1;
        } else {
            i = j;
        }
    }
    out
}

/// Finds every `fn name … { … }` span (bodiless signatures span to their
/// `;`).
fn find_fns(tokens: &[Token]) -> Vec<FnSpan> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + 1 < tokens.len() {
        if tokens[i].kind == TokenKind::Ident
            && tokens[i].text == "fn"
            && tokens[i + 1].kind == TokenKind::Ident
        {
            let name = tokens[i + 1].text.clone();
            // Find the body's `{` (or a `;` first, for trait signatures).
            let mut k = i + 2;
            let mut end = None;
            while k < tokens.len() {
                match tokens[k].text.as_str() {
                    "{" => {
                        end = Some(matching_close(tokens, k));
                        break;
                    }
                    ";" => {
                        end = Some(k);
                        break;
                    }
                    _ => k += 1,
                }
            }
            if let Some(end) = end.filter(|&e| e < tokens.len()) {
                out.push(FnSpan {
                    name,
                    start_tok: i,
                    end_tok: end,
                    start_line: tokens[i].line,
                    end_line: tokens[end].line,
                });
            }
        }
        i += 1;
    }
    out
}

/// The set of files the analysis runs over.
#[derive(Debug)]
pub struct Workspace {
    /// Workspace root (the directory holding the root `Cargo.toml`).
    pub root: PathBuf,
    /// Every scanned file.
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Loads the workspace sources under `root`: `crates/*/src/**/*.rs`,
    /// `crates/bench/benches/*.rs` and the umbrella `src/**/*.rs`.
    /// `vendor/`, `target/` and integration-test directories are out of
    /// scope (fixtures with deliberate violations live under `tests/`).
    pub fn load(root: &Path) -> std::io::Result<Workspace> {
        let mut files = Vec::new();
        let crates = root.join("crates");
        if crates.is_dir() {
            for entry in std::fs::read_dir(&crates)? {
                let dir = entry?.path();
                for sub in ["src", "benches"] {
                    let d = dir.join(sub);
                    if d.is_dir() {
                        collect_rs(&d, &mut files)?;
                    }
                }
            }
        }
        let umbrella = root.join("src");
        if umbrella.is_dir() {
            collect_rs(&umbrella, &mut files)?;
        }
        files.sort();
        let mut sources = Vec::with_capacity(files.len());
        for path in files {
            let src = std::fs::read_to_string(&path)?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            sources.push(SourceFile::parse(rel, &src));
        }
        Ok(Workspace {
            root: root.to_path_buf(),
            files: sources,
        })
    }

    /// The file with workspace-relative path `rel`, if it was scanned.
    pub fn file(&self, rel: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.rel == rel)
    }
}

/// Recursively collects `.rs` files under `dir`.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Walks upward from `start` to the first directory whose `Cargo.toml`
/// declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(d);
                }
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Minimal JSON string escaping for the report emitters.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pragmas_parse_rule_and_reason() {
        let f = SourceFile::parse(
            "x.rs",
            "let a = 1; // swift-lint: allow(atomic-ordering) -- reader only polls\n",
        );
        assert_eq!(f.pragmas.len(), 1);
        assert_eq!(f.pragmas[0].rule, "atomic-ordering");
        assert_eq!(f.pragmas[0].reason, "reader only polls");
        assert!(f.allowed("atomic-ordering", 1));
        assert!(
            f.allowed("atomic-ordering", 2),
            "pragma covers the next line too"
        );
        assert!(!f.allowed("atomic-ordering", 3));
        assert!(!f.allowed("protocol", 1));
        assert!(check_pragmas(&f).is_empty());
    }

    #[test]
    fn pragma_without_reason_does_not_suppress() {
        let f = SourceFile::parse(
            "x.rs",
            "// swift-lint: allow(protocol)\ntx.try_send(ShardMsg::Barrier(1));\n",
        );
        assert!(!f.allowed("protocol", 2));
        assert_eq!(
            check_pragmas(&f).len(),
            1,
            "the reasonless pragma is a finding"
        );
    }

    #[test]
    fn cfg_test_ranges_cover_the_module() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n  fn a() {}\n}\nfn after() {}\n";
        let f = SourceFile::parse("x.rs", src);
        assert!(!f.in_test(1));
        assert!(f.in_test(3));
        assert!(f.in_test(4));
        assert!(!f.in_test(6));
    }

    #[test]
    fn test_attr_fn_is_covered() {
        let src = "#[test]\nfn check() {\n  boom();\n}\nfn live() {}\n";
        let f = SourceFile::parse("x.rs", src);
        assert!(f.in_test(3));
        assert!(!f.in_test(5));
    }

    #[test]
    fn fn_spans_nest_innermost_wins() {
        let src = "fn outer() {\n  fn inner() {\n    x();\n  }\n}\n";
        let f = SourceFile::parse("x.rs", src);
        assert_eq!(f.fns.len(), 2);
        assert_eq!(f.enclosing_fn(3).map(|s| s.name.as_str()), Some("inner"));
        assert_eq!(f.enclosing_fn(5).map(|s| s.name.as_str()), Some("outer"));
    }
}
